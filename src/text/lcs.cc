#include "text/lcs.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace comparesets {

size_t LcsLength(const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
  // Keep the shorter sequence in the inner dimension for O(min) space.
  const std::vector<std::string>& outer = a.size() >= b.size() ? a : b;
  const std::vector<std::string>& inner = a.size() >= b.size() ? b : a;
  if (inner.empty()) return 0;

  std::vector<size_t> prev(inner.size() + 1, 0);
  std::vector<size_t> curr(inner.size() + 1, 0);
  for (size_t i = 1; i <= outer.size(); ++i) {
    for (size_t j = 1; j <= inner.size(); ++j) {
      if (outer[i - 1] == inner[j - 1]) {
        curr[j] = prev[j - 1] + 1;
      } else {
        curr[j] = std::max(prev[j], curr[j - 1]);
      }
    }
    std::swap(prev, curr);
  }
  return prev[inner.size()];
}

BitParallelLcs::BitParallelLcs(size_t vocabulary_size,
                               size_t max_pattern_length)
    : stride_((max_pattern_length + 63) / 64),
      masks_(vocabulary_size * stride_, 0),
      row_(stride_, 0) {}

void BitParallelLcs::SetPattern(std::span<const uint32_t> pattern) {
  COMPARESETS_CHECK(pattern.size() <= stride_ * 64)
      << "pattern longer than max_pattern_length";
  // Zero exactly the words the previous pattern set: every set bit of a
  // row lies in a word some pattern position of that id touched.
  for (size_t i = 0; i < pattern_.size(); ++i) {
    masks_[pattern_[i] * stride_ + i / 64] = 0;
  }
  pattern_.assign(pattern.begin(), pattern.end());
  words_ = (pattern.size() + 63) / 64;
  for (size_t i = 0; i < pattern.size(); ++i) {
    masks_[pattern[i] * stride_ + i / 64] |= uint64_t{1} << (i % 64);
  }
}

size_t BitParallelLcs::Length(std::span<const uint32_t> text) {
  // Row V starts all ones; each text id c updates
  //   V' = (V + (V & M[c])) | (V & ~M[c]),
  // the addition carrying across words. Zero bits of V count the LCS.
  // Bits past the pattern's end start as one and stay one (M is zero
  // there), so they never add to the count; the final carry drops off.
  // x ^ u below is x & ~m, since u = x & m is a subset of x.
  const uint64_t* masks = masks_.data();
  const size_t stride = stride_;
  if (words_ == 1) {
    uint64_t v = ~uint64_t{0};
    for (uint32_t id : text) {
      uint64_t u = v & masks[id * stride];
      v = (v + u) | (v ^ u);
    }
    return std::popcount(~v);
  }
  if (words_ == 2) {
    uint64_t v0 = ~uint64_t{0};
    uint64_t v1 = ~uint64_t{0};
    for (uint32_t id : text) {
      const uint64_t* m = masks + id * stride;
      uint64_t u0 = v0 & m[0];
      uint64_t u1 = v1 & m[1];
      uint64_t sum0 = v0 + u0;
      uint64_t carry = sum0 < v0;
      v1 = (v1 + u1 + carry) | (v1 ^ u1);
      v0 = sum0 | (v0 ^ u0);
    }
    return std::popcount(~v0) + std::popcount(~v1);
  }
  uint64_t* v = row_.data();
  std::fill_n(v, words_, ~uint64_t{0});
  for (uint32_t id : text) {
    const uint64_t* m = masks + id * stride;
    uint64_t carry = 0;
    for (size_t k = 0; k < words_; ++k) {
      uint64_t x = v[k];
      uint64_t u = x & m[k];
      uint64_t sum = x + u;
      uint64_t carry_out = sum < x;
      sum += carry;
      carry = carry_out | (sum < carry);
      v[k] = sum | (x ^ u);
    }
  }
  size_t length = 0;
  for (size_t k = 0; k < words_; ++k) length += std::popcount(~v[k]);
  return length;
}

}  // namespace comparesets
