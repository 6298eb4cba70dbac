// Internal per-path kernel entry points.
//
// Deliberately a raw-pointer C-style API: the AVX2 translation unit is
// compiled with -mavx2, and any shared inline/template code it
// instantiates (std::span accessors, std::sort<double*>, ...) would be
// emitted with that ISA and could be the copy the linker keeps for
// *every* TU — an ODR trap that turns a scalar run into an
// illegal-instruction crash on older CPUs. Keeping the AVX2 TU to plain
// pointers + intrinsics (and doing all selection/quantile work in the
// baseline-compiled kernels.cpp) avoids the whole class of bug.
//
// gather_columns_*: copies columns [c0, c0+bw) of the rows×cols matrix
// given as row pointers into `colbuf`, column j (0-based within the
// block) occupying colbuf[j*nrows .. j*nrows+nrows). bw is at most
// kBandBlockCols. The AVX2 variant uses in-register block transposes so
// the row-major matrix streams through cache line by line.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cloudlens::stats::kernels::detail {

/// Column-block width the band-percentile driver gathers at a time.
inline constexpr std::size_t kBandBlockCols = 4;

// Scalar reference (the oracle).
void fft_stage_scalar(double* data, std::size_t n, std::size_t len,
                      const double* twiddle);
void gather_columns_scalar(const double* const* rows, std::size_t nrows,
                           std::size_t c0, std::size_t bw, double* colbuf);
void hash_normal_fill_scalar(std::uint64_t seed, const std::int64_t* keys,
                             std::size_t n, double* out);

// AVX2 variants. They forward to the scalar reference when the compiler
// cannot target AVX2; kernels.cpp runs them only on AVX2 hardware.
void fft_stage_avx2(double* data, std::size_t n, std::size_t len,
                    const double* twiddle);
void gather_columns_avx2(const double* const* rows, std::size_t nrows,
                         std::size_t c0, std::size_t bw, double* colbuf);
void hash_normal_fill_avx2(std::uint64_t seed, const std::int64_t* keys,
                           std::size_t n, double* out);

}  // namespace cloudlens::stats::kernels::detail
