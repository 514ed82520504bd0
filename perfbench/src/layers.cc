#include "layers.h"

#include "core/design_matrix.h"
#include "core/selector.h"
#include "eval/alignment.h"
#include "opinion/opinion_model.h"
#include "opinion/vectors.h"

namespace perfbench {

using namespace comparesets;

const char* SolveSpanName(const std::string& selector) {
  if (selector == "Crs") return "core.solve.crs";
  if (selector == "CompaReSetS") return "core.solve.compare_sets";
  if (selector == "CompaReSetS+") return "core.solve.compare_sets_plus";
  return "";
}

void LayerStats::Observe(const SelectResponse& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ok_;
  if (response.result_cache_hit) ++memo_hits_;
  if (response.cache_hit) ++vector_hits_;
  solver_iterations_ += response.trace.solver_iterations;
  nnls_nonconverged_ += response.trace.nnls_nonconverged;
  if (!response.result_cache_hit) {
    rouge_pairs_ +=
        response.alignment.target_pairs + response.alignment.among_pairs;
  }
  prepare_seconds_ += response.prepare_seconds;
  engine_seconds_ += response.trace.queue_seconds +
                     response.prepare_seconds + response.solve_seconds;
  queue_seconds_.push_back(response.trace.queue_seconds);
}

void LayerStats::ObserveSelectSpan(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  select_span_seconds_ += seconds;
  ++select_spans_;
}

void LayerStats::Report(const Tracer& tracer, RunReport* report) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double ok = ok_ > 0 ? static_cast<double>(ok_) : 1.0;
  double rouge_s = tracer.Seconds(kRougeSpan);
  uint64_t solved = ok_ - memo_hits_;
  double per_solved = solved > 0 ? static_cast<double>(solved) : 1.0;

  report->Set("rouge.ms_per_req", 1e3 * rouge_s / ok, "ms");
  report->Set("rouge.share",
              select_span_seconds_ > 0.0 ? rouge_s / select_span_seconds_
                                         : 0.0,
              "share");
  report->Set("rouge.pairs_per_req",
              static_cast<double>(rouge_pairs_) / per_solved, "count");
  report->Set("opinion.vectors_ms_per_req",
              1e3 * tracer.Seconds(kVectorsSpan) / ok, "ms");
  report->Set("core.design_ms_per_req",
              1e3 * tracer.Seconds(kDesignSpan) / ok, "ms");
  for (const char* selector : {"Crs", "CompaReSetS", "CompaReSetS+"}) {
    std::string span = SolveSpanName(selector);
    uint64_t calls = tracer.Count(span);
    std::string metric = "core.solve_ms." + span.substr(11);
    report->Set(metric,
                calls > 0 ? 1e3 * tracer.Seconds(span) /
                                static_cast<double>(calls)
                          : 0.0,
                "ms");
  }
  report->Set("core.solver_iterations",
              static_cast<double>(solver_iterations_) / per_solved, "count");
  report->Set("core.nnls_nonconverged",
              static_cast<double>(nnls_nonconverged_) / per_solved, "count");
  report->Set("engine.prepare_ms_per_req", 1e3 * prepare_seconds_ / ok, "ms");
  report->Set("engine.queue_p99_ms", 1e3 * Percentile(queue_seconds_, 0.99),
              "ms");
  report->Set("engine.memo_hit_ratio", static_cast<double>(memo_hits_) / ok,
              "share");
  report->Set("engine.vector_hit_ratio",
              static_cast<double>(vector_hits_) / ok, "share");
  double unattributed = 0.0;
  if (select_spans_ > 0) {
    unattributed =
        (select_span_seconds_ - engine_seconds_ - rouge_s) /
        static_cast<double>(select_spans_);
  }
  report->Set("engine.unattributed_ms_per_req", 1e3 * unattributed, "ms");
}

namespace {

std::vector<Vector> SelectionPhis(const InstanceVectors& vectors,
                                  const std::vector<Selection>& selections) {
  std::vector<Vector> phis;
  phis.reserve(selections.size());
  for (size_t j = 0; j < selections.size(); ++j) {
    phis.push_back(vectors.AspectOf(j, selections[j]));
  }
  return phis;
}

}  // namespace

Status ProbeLayers(const IndexedCorpus& corpus, const SelectRequest& request,
                   const SelectResponse& response, bool alignment_on,
                   Tracer* tracer, uint64_t request_id, uint64_t parent) {
  // A memo hit ran none of these layers; there is nothing to probe.
  if (response.result_cache_hit) return Status::OK();
  const ProblemInstance* instance = corpus.FindInstance(request.target_id);
  if (instance == nullptr) {
    return Status::NotFound("probe: no instance for " + request.target_id);
  }
  if (alignment_on) {
    ScopedSpan span(tracer, kRougeSpan, request_id, parent);
    AlignmentScores scores = MeasureAlignment(*instance, response.selections);
    if (scores.target_pairs != response.alignment.target_pairs ||
        scores.among_pairs != response.alignment.among_pairs) {
      return Status::Internal("probe: alignment pair count mismatch for " +
                              request.target_id);
    }
  }

  OpinionModel model(OpinionDefinition::kBinary, corpus.num_aspects());
  double vectors_start = NowSeconds();
  InstanceVectors vectors = BuildInstanceVectors(model, *instance);
  tracer->Record(response.cache_hit ? kWarmProbeSpan : kVectorsSpan,
                 request_id, parent, vectors_start, NowSeconds());
  {
    ScopedSpan span(tracer, kDesignSpan, request_id, parent);
    const SelectorOptions& options = request.options;
    std::vector<Vector> phis;
    if (request.selector == "CompaReSetS+") {
      phis = SelectionPhis(vectors, response.selections);
    }
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      DesignSystem system;
      if (request.selector == "Crs") {
        system = BuildCrsSystem(vectors, item);
      } else if (request.selector == "CompaReSetS") {
        system = BuildCompareSetsSystem(vectors, item, options.lambda);
      } else {
        std::vector<Vector> others;
        for (size_t j = 0; j < phis.size(); ++j) {
          if (j != item) others.push_back(phis[j]);
        }
        system = BuildCompareSetsPlusSystem(vectors, item, options.lambda,
                                            options.mu, others);
      }
    }
  }
  const char* solve_name = SolveSpanName(request.selector);
  if (*solve_name == '\0') return Status::OK();
  auto selector = MakeSelector(request.selector);
  if (!selector.ok()) return selector.status();
  ScopedSpan span(tracer, solve_name, request_id, parent);
  auto solved = selector.value()->Select(vectors, request.options);
  if (!solved.ok()) return solved.status();
  if (solved.value().selections != response.selections) {
    return Status::Internal("probe: re-solve disagrees with the response for " +
                            request.target_id);
  }
  return Status::OK();
}

}  // namespace perfbench
