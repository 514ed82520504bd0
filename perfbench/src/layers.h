// Per-layer measurement for the traced run. Each served response is
// followed by bench-side calls into the public functions of the layers
// that produced it (alignment, opinion vectors, design systems, the
// selector), each inside a span; the response's own fields supply the
// engine-side numbers (prepare, queue, cache flags, solver counters).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "service/engine.h"
#include "service/indexed_corpus.h"
#include "trace.h"

namespace perfbench {

/// Span names of the probed layer calls.
inline constexpr const char* kRougeSpan = "rouge.measure_alignment";
inline constexpr const char* kVectorsSpan = "opinion.build_instance_vectors";
inline constexpr const char* kDesignSpan = "core.build_design_systems";
/// Probe calls the engine did not make for this request (warm state):
/// timed so the probe's own cost shows, but kept out of layer metrics.
inline constexpr const char* kWarmProbeSpan = "probe.warm_rebuild";

/// "core.solve.<selector>" span name for a selector ("" if unknown).
const char* SolveSpanName(const std::string& selector);

/// Engine-side numbers read from responses, summed over ok responses.
class LayerStats {
 public:
  void Observe(const comparesets::SelectResponse& response);
  /// A caller-visible Select span containing one request.
  void ObserveSelectSpan(double seconds);

  /// Fills the per-layer metrics derived from these stats and the
  /// tracer's span totals. `ok` requests are the denominator of every
  /// "_per_req" metric.
  void Report(const Tracer& tracer, RunReport* report) const;

 private:
  mutable std::mutex mutex_;
  uint64_t ok_ = 0;
  uint64_t memo_hits_ = 0;
  uint64_t vector_hits_ = 0;
  uint64_t solver_iterations_ = 0;
  uint64_t nnls_nonconverged_ = 0;
  uint64_t rouge_pairs_ = 0;
  double prepare_seconds_ = 0.0;
  double engine_seconds_ = 0.0;  ///< queue + prepare + solve.
  std::vector<double> queue_seconds_;
  double select_span_seconds_ = 0.0;
  uint64_t select_spans_ = 0;
};

/// Re-runs the layer calls behind `response` on `corpus`'s instance for
/// its target, recording one span per call under (request, parent).
/// Alignment is re-measured only when `alignment_on`; calls the engine
/// skipped for this response (vector-cache or memo hits) are recorded
/// as kWarmProbeSpan instead of their layer's name.
comparesets::Status ProbeLayers(const comparesets::IndexedCorpus& corpus,
                                const comparesets::SelectRequest& request,
                                const comparesets::SelectResponse& response,
                                bool alignment_on, Tracer* tracer,
                                uint64_t request_id, uint64_t parent);

}  // namespace perfbench
