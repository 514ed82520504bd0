// Longest common subsequence length over token sequences (ROUGE-L core).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace comparesets {

/// Length of the LCS of two token sequences. O(|a|·|b|) time,
/// O(min(|a|,|b|)) space (two-row dynamic program).
size_t LcsLength(const std::vector<std::string>& a,
                 const std::vector<std::string>& b);

/// Bit-parallel LCS length (Allison–Dix / Hyyrö) of token-id sequences
/// against one fixed "pattern": O(|text| · ⌈|pattern|/64⌉) word
/// operations per Length call. Patterns of one or two words (up to 128
/// ids, nearly every review) run in straight-line code with the row in
/// registers; longer ones carry across words in a loop. The match-mask
/// table has one row per vocabulary id; SetPattern fills it at the
/// pattern's own ids and clears the previous pattern's, so swapping
/// patterns costs O(|pattern|) rather than O(vocabulary). Not
/// thread-safe: one instance per caller.
class BitParallelLcs {
 public:
  /// Every id passed in must be < `vocabulary_size`; every pattern must
  /// have at most `max_pattern_length` ids.
  BitParallelLcs(size_t vocabulary_size, size_t max_pattern_length);

  void SetPattern(std::span<const uint32_t> pattern);

  /// LCS length of the current pattern and `text`; equals LcsLength
  /// over the same tokens.
  size_t Length(std::span<const uint32_t> text);

 private:
  size_t stride_;                 ///< Words per mask row (max pattern).
  size_t words_ = 0;              ///< Words the current pattern spans.
  std::vector<uint64_t> masks_;   ///< Row `id`: bit i set iff pattern[i] == id.
  std::vector<uint32_t> pattern_; ///< Ids whose rows are currently filled.
  std::vector<uint64_t> row_;     ///< Scratch DP row, one bit per pattern id.
};

}  // namespace comparesets
