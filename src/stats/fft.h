// Radix-2 FFT and periodogram.
//
// The periodicity detector (periodicity.h) follows the paper's reference
// [18] (Vlachos et al., ICDM 2005): periodogram candidates validated on the
// autocorrelation function. Both need an FFT; we implement our own to stay
// dependency-free.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace cloudlens::stats {

/// In-place iterative radix-2 Cooley–Tukey. data.size() must be a power of 2.
/// The bit-reversal swaps and every stage's twiddle table are built once per
/// size, on first use (thread-safe), and kept for the process; each call runs
/// one kernels::fft_stage per stage over them. The inverse scales by 1/n.
void fft_inplace(std::vector<std::complex<double>>& data, bool inverse);

/// Next power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Periodogram of a real series: P[k] = |X_k|^2 / N for k = 0..N/2, where X
/// is the DFT of the mean-removed, zero-padded input. Index k corresponds to
/// period N_padded / k samples.
std::vector<double> periodogram(std::span<const double> xs);

/// Autocorrelation function via FFT (biased estimator, normalized so
/// acf[0] == 1 for non-constant input). Returns lags 0..n-1.
std::vector<double> autocorrelation(std::span<const double> xs);

}  // namespace cloudlens::stats
