#include "text/ngram.h"

#include <algorithm>

namespace comparesets {

NgramCounts CountNgrams(const std::vector<std::string>& tokens, size_t n) {
  NgramCounts counts;
  if (n == 0 || tokens.size() < n) return counts;
  for (size_t i = 0; i + n <= tokens.size(); ++i) {
    std::string key = tokens[i];
    for (size_t j = 1; j < n; ++j) {
      key.push_back('\x1f');
      key += tokens[i + j];
    }
    ++counts[key];
  }
  return counts;
}

int ClippedOverlap(const NgramCounts& a, const NgramCounts& b) {
  // Iterate over the smaller map for speed.
  const NgramCounts& small = a.size() <= b.size() ? a : b;
  const NgramCounts& large = a.size() <= b.size() ? b : a;
  int overlap = 0;
  for (const auto& [gram, count] : small) {
    auto it = large.find(gram);
    if (it != large.end()) overlap += std::min(count, it->second);
  }
  return overlap;
}

int TotalCount(const NgramCounts& counts) {
  int total = 0;
  for (const auto& [gram, count] : counts) total += count;
  return total;
}

}  // namespace comparesets
