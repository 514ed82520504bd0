// N-gram multiset extraction for ROUGE-N.

#pragma once

#include <cstdint>
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

/// Multiset of integer n-gram keys as (key, count) pairs, sorted by key
/// with each key once. A unigram key is a token id; a bigram key packs
/// `id_a << 32 | id_b`, which is one-to-one like the '\x1f' join.
using IdNgramCounts = std::vector<std::pair<uint64_t, int>>;

/// Extracts order-n n-grams (n = 1 or 2) from a token-id sequence.
IdNgramCounts CountIdNgrams(const std::vector<uint32_t>& ids, size_t n);

/// ClippedOverlap over sorted id multisets, by one merge pass.
int ClippedOverlap(const IdNgramCounts& a, const IdNgramCounts& b);

}  // namespace comparesets
