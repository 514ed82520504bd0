#include "text/ngram.h"

#include <algorithm>

#include "util/logging.h"

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

IdNgramCounts CountIdNgrams(const std::vector<uint32_t>& ids, size_t n) {
  COMPARESETS_CHECK(n <= 2) << "id n-grams pack at most two ids";
  IdNgramCounts counts;
  if (n == 0 || ids.size() < n) return counts;
  std::vector<uint64_t> keys;
  keys.reserve(ids.size() - n + 1);
  for (size_t i = 0; i + n <= ids.size(); ++i) {
    keys.push_back(n == 1 ? ids[i] : uint64_t{ids[i]} << 32 | ids[i + 1]);
  }
  // Sort, then run-length encode: equal keys are adjacent.
  std::sort(keys.begin(), keys.end());
  for (uint64_t key : keys) {
    if (!counts.empty() && counts.back().first == key) {
      ++counts.back().second;
    } else {
      counts.emplace_back(key, 1);
    }
  }
  return counts;
}

int ClippedOverlap(const IdNgramCounts& a, const IdNgramCounts& b) {
  int overlap = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->first < j->first) {
      ++i;
    } else if (j->first < i->first) {
      ++j;
    } else {
      overlap += std::min(i->second, j->second);
      ++i;
      ++j;
    }
  }
  return overlap;
}

}  // namespace comparesets
