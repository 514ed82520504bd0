// N-gram multiset extraction for ROUGE-N.

#pragma once

#include <string>
#include <unordered_map>
#include <vector>

namespace comparesets {

/// Multiset of n-grams: joined-token key -> count.
using NgramCounts = std::unordered_map<std::string, int>;

/// Extracts order-n n-grams from a token sequence. Tokens are joined
/// with '\x1f' so that multi-token grams cannot collide with each other.
NgramCounts CountNgrams(const std::vector<std::string>& tokens, size_t n);

/// Size of the clipped intersection of two n-gram multisets
/// (Σ_g min(a[g], b[g])) — the ROUGE-N overlap numerator.
int ClippedOverlap(const NgramCounts& a, const NgramCounts& b);

/// Total count in a multiset.
int TotalCount(const NgramCounts& counts);

}  // namespace comparesets
