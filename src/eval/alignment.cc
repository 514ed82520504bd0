#include "eval/alignment.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace comparesets {

namespace {

RougeTriple Mean(RougeTriple sum, size_t count) {
  if (count > 0) sum /= static_cast<double>(count);
  return sum;
}

/// Tokenizes and interns every selected review once, into vocabularies
/// private to this call (engine threads align concurrently), then scores
/// each cross-item pair once. Pairs are visited — and their scores
/// summed — in a fixed order (item a < b, then a's reviews, then b's),
/// because the means are floating-point sums whose bits depend on it.
Result<AlignmentScores> Measure(const ProblemInstance& instance,
                                const std::vector<Selection>& selections,
                                const std::vector<size_t>& items,
                                const ExecControl* control) {
  COMPARESETS_CHECK(selections.size() == instance.num_items())
      << "selection count mismatch";

  // Item t's reviews are documents first[t] .. first[t + 1] - 1.
  InternedDocuments docs;
  std::vector<size_t> first(items.size() + 1, 0);
  for (size_t t = 0; t < items.size(); ++t) {
    size_t item = items[t];
    COMPARESETS_CHECK(item < instance.num_items()) << "item out of range";
    const Product& product = *instance.items[item];
    for (size_t review_index : selections[item]) {
      COMPARESETS_CHECK(review_index < product.reviews.size())
          << "review index out of range";
      docs.Add(product.reviews[review_index].text);
    }
    first[t + 1] = docs.size();
  }

  SymmetricRougeScorer scorer(&docs);
  RougeTriple target_sum;
  RougeTriple among_sum;
  AlignmentScores out;
  for (size_t a = 0; a < items.size(); ++a) {
    for (size_t b = a + 1; b < items.size(); ++b) {
      if (control != nullptr) {
        COMPARESETS_RETURN_NOT_OK(CheckLive(*control, "alignment"));
      }
      bool target = items[a] == 0 || items[b] == 0;
      for (size_t da = first[a]; da < first[a + 1]; ++da) {
        scorer.SetOuter(da);
        for (size_t db = first[b]; db < first[b + 1]; ++db) {
          RougeTriple score = scorer.Score(db);
          among_sum += score;
          ++out.among_pairs;
          if (target) {
            target_sum += score;
            ++out.target_pairs;
          }
        }
      }
    }
  }
  out.target_vs_comparative = Mean(target_sum, out.target_pairs);
  out.among_items = Mean(among_sum, out.among_pairs);
  return out;
}

std::vector<size_t> AllItems(const ProblemInstance& instance) {
  std::vector<size_t> all(instance.num_items());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

}  // namespace

AlignmentScores MeasureAlignmentSubset(const ProblemInstance& instance,
                                       const std::vector<Selection>& selections,
                                       const std::vector<size_t>& items) {
  return Measure(instance, selections, items, nullptr).value();
}

AlignmentScores MeasureAlignment(const ProblemInstance& instance,
                                 const std::vector<Selection>& selections) {
  return Measure(instance, selections, AllItems(instance), nullptr).value();
}

Result<AlignmentScores> MeasureAlignment(
    const ProblemInstance& instance, const std::vector<Selection>& selections,
    const ExecControl* control) {
  return Measure(instance, selections, AllItems(instance), control);
}

}  // namespace comparesets
