#include "text/tokenizer.h"

#include <cctype>

#include "util/string_util.h"

namespace comparesets {

std::string LightStem(const std::string& token) {
  // Conservative plural/inflection stripping; only applied to longer
  // tokens so short words ("is", "was", "les") are untouched.
  if (token.size() >= 6 && EndsWith(token, "ing")) {
    return token.substr(0, token.size() - 3);
  }
  if (token.size() >= 5 && EndsWith(token, "ies")) {
    return token.substr(0, token.size() - 3) + "y";
  }
  if (token.size() >= 5 && EndsWith(token, "es") &&
      !EndsWith(token, "ses")) {
    return token.substr(0, token.size() - 1);  // "batteries" handled above.
  }
  if (token.size() >= 5 && EndsWith(token, "ed")) {
    return token.substr(0, token.size() - 2);
  }
  if (token.size() >= 4 && EndsWith(token, "s") && !EndsWith(token, "ss")) {
    return token.substr(0, token.size() - 1);
  }
  return token;
}

std::vector<std::string> Tokenize(std::string_view text,
                                  const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.empty()) return;
    std::string token = options.light_stem ? LightStem(current) : current;
    if (token.size() >= options.min_token_length) {
      tokens.push_back(std::move(token));
    }
    current.clear();
  };
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(options.lowercase
                            ? static_cast<char>(std::tolower(c))
                            : raw);
    } else if (raw == '\'') {
      // Drop apostrophes inside words ("don't" -> "dont"), matching
      // common ROUGE tokenization.
      continue;
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

void DenseIdIndex::Grow() {
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(2 * old.size(), 0);
  size_t mask = slots_.size() - 1;
  for (uint32_t entry : old) {
    if (entry == 0) continue;
    size_t slot = Home(hashes_[entry - 1]);
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = entry;
  }
}

TokenInterner::TokenInterner() {
  // The same per-byte classification Tokenize makes, taken once.
  for (int c = 0; c < 256; ++c) {
    fold_[c] = std::isalnum(c) ? static_cast<unsigned char>(std::tolower(c))
                               : 0;
  }
}

void TokenInterner::AppendIds(std::string_view text,
                              std::vector<uint32_t>* ids) {
  constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
  constexpr uint64_t kFnvPrime = 1099511628211ULL;
  size_t start = arena_.size();
  uint64_t hash = kFnvOffset;
  for (char raw : text) {
    unsigned char folded = fold_[static_cast<unsigned char>(raw)];
    if (folded != 0) {
      arena_.push_back(static_cast<char>(folded));
      hash = (hash ^ folded) * kFnvPrime;
    } else if (raw != '\'' && arena_.size() > start) {
      // Apostrophes are dropped without ending the token, as in Tokenize.
      ids->push_back(Commit(start, hash));
      start = arena_.size();
      hash = kFnvOffset;
    }
  }
  if (arena_.size() > start) ids->push_back(Commit(start, hash));
}

uint32_t TokenInterner::Commit(size_t start, uint64_t hash) {
  std::string_view token = std::string_view(arena_).substr(start);
  auto [id, added] =
      index_.FindOrAdd(hash, [&](uint32_t id) { return Word(id) == token; });
  if (added) {
    starts_.push_back(arena_.size());
  } else {
    arena_.resize(start);
  }
  return id;
}

std::vector<std::string> SplitSentences(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == '.' || c == '!' || c == '?') {
      std::string_view trimmed = Trim(current);
      if (!trimmed.empty()) out.emplace_back(trimmed);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  std::string_view trimmed = Trim(current);
  if (!trimmed.empty()) out.emplace_back(trimmed);
  return out;
}

}  // namespace comparesets
