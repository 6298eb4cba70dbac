// AnalysisContext: the one execution-environment handle every analysis
// entry point takes.
//
// Before this API, each analysis function grew its own parameter soup —
// `(trace, Options, ParallelConfig)` in assorted orders, with some batch
// passes silently ignoring the parallel knob because nobody threaded it
// through. The context bundles what an analysis needs to *run* (as
// opposed to what it should *compute*, which stays in per-pass Options
// structs):
//
//   - the borrowed TraceStore (non-owning; the caller keeps it alive),
//   - the ParallelConfig for every fan-out inside the pass,
//   - the observability backends: a MetricsRegistry and a TraceSink,
//     both defaulting to the process-global instances (which start
//     disabled, so an un-configured context records nothing).
//
// Determinism: the context only *carries* the parallel and observability
// knobs; neither changes results. Analyses remain bit-identical at any
// thread count and with metrics/tracing on or off (pinned by
// obs_determinism_test and the parallel-equivalence suite).
//
// Every `src/analysis/*` and `kb` entry point takes the context as its
// first parameter; the historical `(const TraceStore&, ..., ParallelConfig)`
// forwarder overloads are gone. Call sites that only have a TraceStore
// construct a context inline — `f(AnalysisContext(trace), ...)` — which
// binds fine as a temporary to the `const AnalysisContext&` parameter.
#pragma once

#include <string_view>

#include "cloudsim/trace.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "obs/trace_sink.h"

namespace cloudlens {

class AnalysisContext {
 public:
  /// Borrow `trace` (must outlive the context). Null observability
  /// pointers resolve to the process-global registry/sink.
  explicit AnalysisContext(const TraceStore& trace,
                           ParallelConfig parallel = {},
                           obs::MetricsRegistry* metrics = nullptr,
                           obs::TraceSink* trace_sink = nullptr)
      : trace_(&trace),
        parallel_(parallel),
        metrics_(metrics != nullptr ? metrics
                                    : &obs::MetricsRegistry::global()),
        sink_(trace_sink != nullptr ? trace_sink : &obs::TraceSink::global()) {
  }

  const TraceStore& trace() const { return *trace_; }
  const ParallelConfig& parallel() const { return parallel_; }
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::TraceSink& trace_sink() const { return *sink_; }

  /// Count an event against this context's registry (no-op when metrics
  /// are disabled).
  void count(obs::Counter c, std::uint64_t delta = 1) const {
    metrics_->add(c, delta);
  }

  /// RAII timer for one analysis pass: counter + latency histogram +
  /// trace span, each gated on its backend's enabled flag.
  obs::PhaseTimer phase(
      std::string_view name,
      obs::Histogram histogram = obs::Histogram::kAnalysisPassSeconds,
      obs::Counter counter = obs::Counter::kAnalysisPasses) const {
    return obs::PhaseTimer(name, histogram, counter, metrics_, sink_);
  }

 private:
  const TraceStore* trace_;
  ParallelConfig parallel_;
  obs::MetricsRegistry* metrics_;
  obs::TraceSink* sink_;
};

}  // namespace cloudlens
