// The four hot kernel families behind the characterization suite: the
// fused Pearson co-moments, per-timepoint percentile bands, FFT butterfly
// stages, and the batched pattern-noise fills.
//
// One kernel path per CPU. Each vectorized family ships a scalar
// reference (the byte oracle every differential test compares against,
// and the only path off x86) and an AVX2 variant. The path is a pure
// function of the CPU: AVX2 when __builtin_cpu_supports("avx2"), scalar
// otherwise. No environment variable, flag or numeric mode changes it.
//
// Both paths produce identical bytes. Element-wise kernels (FFT
// butterflies, the hash-normal noise fill) and permutation-invariant
// kernels (band percentiles, which select exact order statistics)
// vectorize bit-exactly. The Pearson co-moment sums are a serial
// reduction whose order is part of the byte contract, so they run one
// scalar loop on both paths.
//
// Every kernel call that depends on the path records it in the
// kernels.tier gauge (0 scalar, 2 AVX2). A test reaches the scalar path
// inside an AVX2 process through ScopedTier; nothing else can switch it.
#pragma once

#include <cstdint>
#include <span>

namespace cloudlens::stats::kernels {

/// Kernel paths; the values are what the kernels.tier gauge records.
enum class Tier : int { kScalar = 0, kAvx2 = 2 };

/// AVX2 when this CPU supports it, scalar otherwise.
Tier cpu_tier();

/// The path every entry point below runs: cpu_tier(), unless a
/// ScopedTier is alive. Stamps it into the kernels.tier gauge.
Tier active();

/// Test-only seam: every kernel runs on `tier` while this object lives;
/// the destructor restores the previous path. Asking for AVX2 on a CPU
/// without it throws CheckError.
class ScopedTier {
 public:
  explicit ScopedTier(Tier tier);
  ~ScopedTier();
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  Tier previous_;
};

// --- Family 1: fused Pearson co-moments ---------------------------------

/// Raw co-moment sums of two equal-length series accumulated in one pass:
/// Σx, Σy, Σx², Σy², Σxy, in the serial left-to-right order of the scalar
/// loop on every path.
struct PearsonSums {
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
};

PearsonSums pearson_sums(std::span<const double> x, std::span<const double> y);

// --- Family 2: per-column percentile bands ------------------------------

/// Output spans for band_percentiles; each must hold `cols` doubles.
struct BandOutputs {
  std::span<double> p25, p50, p75, p95;
};

/// For every column t of the `rows.size()` × `cols` matrix given as row
/// pointers (each row holds `cols` contiguous doubles), computes the
/// type-7 p25/p50/p75/p95 quantiles over the column. The AVX2 path
/// gathers columns in transposed blocks for locality; selecting exact
/// order statistics makes the result independent of gather order, so
/// both paths are bit-exact. Inputs must be finite (telemetry is
/// [0, 1]); rows must be non-empty.
void band_percentiles(std::span<const double* const> rows, std::size_t cols,
                      const BandOutputs& out);

// --- Family 3: FFT butterfly stage --------------------------------------

/// One radix-2 butterfly stage of length `len` over `n` interleaved
/// complex doubles (`data` holds 2n doubles); `twiddle` holds len/2
/// interleaved (re, im) factors for this stage. The AVX2 lanes evaluate
/// exactly the scalar expressions (vr = xr·tr − xi·ti, vi = xi·tr + xr·ti
/// — IEEE add/mul are commutative), so the transform is bit-identical on
/// both paths.
void fft_stage(double* data, std::size_t n, std::size_t len,
               const double* twiddle);

// --- Family 4: batched pattern-noise fill -------------------------------

/// out[i] = hash_normal(seed, keys[i]): the Irwin–Hall(4) approximate
/// normal from a SplitMix64 stream keyed by (seed, key) that every
/// utilization pattern model draws per telemetry tick. The AVX2 path runs
/// four SplitMix64 lanes with an exact 64-bit multiply emulation and an
/// exact u64→f64 conversion, so both paths are bit-identical. This is the
/// single source of truth for the hash — workloads::hash_normal delegates
/// to hash_normal_one.
void hash_normal_fill(std::uint64_t seed, std::span<const std::int64_t> keys,
                      std::span<double> out);

/// Scalar single-key hash_normal (the oracle's per-element function).
double hash_normal_one(std::uint64_t seed, std::int64_t key);

}  // namespace cloudlens::stats::kernels
