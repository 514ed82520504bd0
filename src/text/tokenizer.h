// Word tokenizer used for ROUGE scoring and aspect extraction.
//
// Mirrors the standard ROUGE preprocessing: lowercase, split on
// non-alphanumeric characters, keep pure-number tokens. No stemming by
// default (an optional light suffix stripper is provided for the aspect
// extractor, which benefits from conflating plurals).

#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
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

/// Open-addressed index from keys to dense ids 0, 1, 2, ... in
/// first-seen order. It stores only ids and each id's 64-bit hash; the
/// caller keeps the keys themselves, indexed by id, and supplies the
/// equality test. Keys whose hash is one-to-one (e.g. a packed integer)
/// can pass an equality that is always true.
class DenseIdIndex {
 public:
  DenseIdIndex() : slots_(kInitialSlots, 0) {}

  size_t size() const { return hashes_.size(); }

  /// Returns {id, true} after giving a new key the next id, or
  /// {id, false} for the key with hash `hash` on which `equal(id)` holds.
  template <typename Equal>
  std::pair<uint32_t, bool> FindOrAdd(uint64_t hash, const Equal& equal) {
    size_t mask = slots_.size() - 1;
    for (size_t slot = Home(hash);; slot = (slot + 1) & mask) {
      uint32_t entry = slots_[slot];
      if (entry == 0) {
        uint32_t id = static_cast<uint32_t>(hashes_.size());
        slots_[slot] = id + 1;
        hashes_.push_back(hash);
        if (2 * hashes_.size() > slots_.size()) Grow();
        return {id, true};
      }
      if (hashes_[entry - 1] == hash && equal(entry - 1)) {
        return {entry - 1, false};
      }
    }
  }

 private:
  static constexpr size_t kInitialSlots = 1024;

  /// Home slot: the top bits of a multiplicative (Fibonacci) mix.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >>
                               (64 - std::countr_zero(slots_.size())));
  }
  void Grow();

  std::vector<uint32_t> slots_;   ///< id + 1; 0 marks an empty slot.
  std::vector<uint64_t> hashes_;  ///< Hash of each id's key.
};

/// Tokenizes exactly as Tokenize with default options and maps each
/// token to a dense id, in first-seen order, without building a string
/// per token: the bytes are folded straight into an arena, and a token
/// seen before is dropped from the arena again after its lookup. Ids
/// mean nothing outside the interner that issued them. One instance per
/// caller; it only grows.
class TokenInterner {
 public:
  TokenInterner();

  /// Appends the ids of `text`'s tokens to `ids`.
  void AppendIds(std::string_view text, std::vector<uint32_t>* ids);

  size_t size() const { return index_.size(); }

  /// The token behind `id`.
  std::string_view Word(uint32_t id) const {
    return std::string_view(arena_).substr(starts_[id],
                                           starts_[id + 1] - starts_[id]);
  }

 private:
  /// Interns the token at the arena's tail, from `start` on; keeps its
  /// bytes only if it is new.
  uint32_t Commit(size_t start, uint64_t hash);

  unsigned char fold_[256];  ///< Lowercased byte; 0 if not alnum.
  std::string arena_;        ///< Every distinct token, back to back.
  /// Word(id) is arena_[starts_[id], starts_[id + 1]).
  std::vector<size_t> starts_{0};
  DenseIdIndex index_;
};

/// Light suffix stripper used when TokenizerOptions::light_stem is set.
std::string LightStem(const std::string& token);

/// Splits text into sentences on '.', '!', '?' (keeping abbreviations is
/// not attempted; review text is informal). Empty sentences are dropped.
std::vector<std::string> SplitSentences(std::string_view text);

}  // namespace comparesets
