// Review-alignment measurement (§4.1.3): average pairwise ROUGE between
// selected reviews of different items —
//   * "Target vs Comparative": pairs (r ∈ S_1, r' ∈ S_j), j ≥ 2
//     (Tables 3a / 6a);
//   * "Among items": pairs from any two distinct items (Tables 3b / 6b).
// Reported as mean F1 per pair; 0 when no pair exists.
//
// Each call tokenizes the selected reviews once, interns their words and
// bigrams into per-call dense ids, and counts each pair's unigram /
// bigram overlap (against dense count tables of the outer review) and
// LCS (bit-parallel) once. The result is bit-identical to averaging
// RougeDocument::ScoreAgainst in both directions per pair, summed in the
// same pair order.

#pragma once

#include <vector>

#include "data/corpus.h"
#include "opinion/vectors.h"
#include "text/rouge.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace comparesets {

struct AlignmentScores {
  RougeTriple target_vs_comparative;  ///< Mean pairwise F1 triple.
  RougeTriple among_items;
  size_t target_pairs = 0;  ///< #pairs behind target_vs_comparative.
  size_t among_pairs = 0;   ///< #pairs behind among_items.
};

/// Measures alignment over all items of the instance.
AlignmentScores MeasureAlignment(const ProblemInstance& instance,
                                 const std::vector<Selection>& selections);

/// MeasureAlignment under a request's deadline and cancel token, checked
/// before each pair of items: returns kDeadlineExceeded / kCancelled
/// instead of finishing the pass.
Result<AlignmentScores> MeasureAlignment(
    const ProblemInstance& instance, const std::vector<Selection>& selections,
    const ExecControl* control);

/// Measures alignment restricted to a subset of item indices (the core
/// list; must contain item 0 for the target view to be meaningful).
AlignmentScores MeasureAlignmentSubset(const ProblemInstance& instance,
                                       const std::vector<Selection>& selections,
                                       const std::vector<size_t>& items);

}  // namespace comparesets
