// Word tokenizer used for ROUGE scoring and aspect extraction.
//
// Mirrors the standard ROUGE preprocessing: lowercase, split on
// non-alphanumeric characters, keep pure-number tokens. No stemming by
// default (an optional light suffix stripper is provided for the aspect
// extractor, which benefits from conflating plurals).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace comparesets {

struct TokenizerOptions {
  bool lowercase = true;
  /// Strips trivial English suffixes ("-s", "-es", "-ing", "-ed") from
  /// tokens of length >= 5. Off for ROUGE, on for aspect extraction.
  bool light_stem = false;
  /// Drops tokens shorter than this after processing.
  size_t min_token_length = 1;
};

/// Splits text into word tokens.
std::vector<std::string> Tokenize(std::string_view text,
                                  const TokenizerOptions& options = {});

/// Dense token vocabulary: each distinct token string gets the next
/// uint32_t id, starting at 0. Ids mean nothing outside the vocabulary
/// that issued them.
class TokenVocabulary {
 public:
  uint32_t Intern(const std::string& token);
  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

/// Light suffix stripper used when TokenizerOptions::light_stem is set.
std::string LightStem(const std::string& token);

/// Splits text into sentences on '.', '!', '?' (keeping abbreviations is
/// not attempted; review text is informal). Empty sentences are dropped.
std::vector<std::string> SplitSentences(std::string_view text);

}  // namespace comparesets
