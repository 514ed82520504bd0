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

uint32_t TokenVocabulary::Intern(const std::string& token) {
  return ids_.try_emplace(token, static_cast<uint32_t>(ids_.size()))
      .first->second;
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
