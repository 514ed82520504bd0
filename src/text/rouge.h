// ROUGE metrics (Lin & Hovy 2003) used for review-alignment measurement.
//
// The paper reports F1 of ROUGE-1 (unigrams), ROUGE-2 (bigrams), and
// ROUGE-L (longest common subsequence) between pairs of selected reviews
// coming from different items, averaged over pairs. Scores here are
// returned in [0, 1]; benches print them scaled by 100 as in the paper.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "text/lcs.h"
#include "text/ngram.h"
#include "text/tokenizer.h"

namespace comparesets {

/// Precision / recall / F1 triple for one ROUGE variant.
struct RougeScore {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

/// R-1 / R-2 / R-L bundle, as reported in the paper's tables.
struct RougeTriple {
  RougeScore rouge1;
  RougeScore rouge2;
  RougeScore rougeL;

  RougeTriple& operator+=(const RougeTriple& other);
  RougeTriple& operator/=(double denom);
};

/// Pre-tokenized document with cached n-gram multisets, for repeated
/// scoring (amortizes preprocessing across the O(pairs) alignment pass).
class RougeDocument {
 public:
  explicit RougeDocument(std::string_view text);

  const std::vector<std::string>& tokens() const { return tokens_; }
  const NgramCounts& unigrams() const { return unigrams_; }
  const NgramCounts& bigrams() const { return bigrams_; }

  /// Scores this document as candidate against `reference`.
  RougeTriple ScoreAgainst(const RougeDocument& reference) const;

 private:
  std::vector<std::string> tokens_;
  NgramCounts unigrams_;
  NgramCounts bigrams_;
};

/// Documents tokenized exactly as RougeDocument tokenizes them and
/// interned into dense per-set ids: one id per distinct word and one per
/// distinct word bigram. Each document keeps its word ids and its
/// unigram / bigram multisets as (id, count) lists — the form
/// SymmetricRougeScorer scores many pairs in. Ids mean nothing outside
/// the set; one instance per caller.
class InternedDocuments {
 public:
  struct IdCount {
    uint32_t id = 0;
    int count = 0;
  };

  /// Interns `text` as the next document; returns its index.
  size_t Add(std::string_view text);

  size_t size() const { return starts_.size() - 1; }
  size_t num_words() const { return words_.size(); }
  size_t num_bigrams() const { return bigram_index_.size(); }
  size_t max_tokens() const { return max_tokens_; }

  std::span<const uint32_t> ids(size_t doc) const {
    return Slice(ids_, starts_[doc].ids, starts_[doc + 1].ids);
  }
  std::span<const IdCount> unigrams(size_t doc) const {
    return Slice(unigrams_, starts_[doc].unigrams, starts_[doc + 1].unigrams);
  }
  std::span<const IdCount> bigrams(size_t doc) const {
    return Slice(bigrams_, starts_[doc].bigrams,
                 starts_[doc + 1].bigrams);
  }

 private:
  /// Where a document's entries begin in each flat array.
  struct Offsets {
    size_t ids = 0;
    size_t unigrams = 0;
    size_t bigrams = 0;
  };

  template <typename T>
  static std::span<const T> Slice(const std::vector<T>& all, size_t begin,
                                  size_t end) {
    return std::span<const T>(all).subspan(begin, end - begin);
  }
  /// Appends the (id, count) multiset of `keys` to `out`.
  void Count(std::span<const uint32_t> keys, size_t vocabulary,
             std::vector<IdCount>* out);

  TokenInterner words_;
  DenseIdIndex bigram_index_;  ///< Keyed by `word_a << 32 | word_b`.
  /// Document d spans starts_[d] .. starts_[d + 1] of each array.
  std::vector<Offsets> starts_{Offsets{}};
  size_t max_tokens_ = 0;
  std::vector<uint32_t> ids_;
  std::vector<IdCount> unigrams_;
  std::vector<IdCount> bigrams_;
  std::vector<uint32_t> bigram_ids_;  ///< Scratch: one document's bigrams.
  std::vector<int> tally_;            ///< Scratch for Count; kept zero.
};

/// Scores pairs of one InternedDocuments set symmetrically: the mean of
/// `a` scored against `b` and `b` against `a`, bit-identical to
/// averaging RougeDocument::ScoreAgainst in both directions over the
/// same texts. The clipped overlaps and the LCS are symmetric, so each
/// is counted once. SetOuter(a) writes a's n-gram counts into dense
/// tables (and a's ids into the LCS mask table), so each Score(b) reads
/// min(count_b, table[id]) over b's lists, with no merge; the next
/// SetOuter clears the tables at a's own ids. Not thread-safe.
class SymmetricRougeScorer {
 public:
  /// `docs` must outlive the scorer and gain no documents meanwhile.
  explicit SymmetricRougeScorer(const InternedDocuments* docs);

  void SetOuter(size_t a);
  RougeTriple Score(size_t b);

 private:
  const InternedDocuments& docs_;
  size_t outer_ = 0;
  int outer_tokens_ = 0;
  bool has_outer_ = false;
  std::vector<int> unigram_table_;
  std::vector<int> bigram_table_;
  BitParallelLcs lcs_;
};

/// Convenience helpers over raw strings (candidate scored vs reference).
RougeScore Rouge1(std::string_view candidate, std::string_view reference);
RougeScore Rouge2(std::string_view candidate, std::string_view reference);
RougeScore RougeL(std::string_view candidate, std::string_view reference);
RougeTriple RougeAll(std::string_view candidate, std::string_view reference);

}  // namespace comparesets
