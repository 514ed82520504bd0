// ROUGE metrics (Lin & Hovy 2003) used for review-alignment measurement.
//
// The paper reports F1 of ROUGE-1 (unigrams), ROUGE-2 (bigrams), and
// ROUGE-L (longest common subsequence) between pairs of selected reviews
// coming from different items, averaged over pairs. Scores here are
// returned in [0, 1]; benches print them scaled by 100 as in the paper.

#pragma once

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

/// A document tokenized exactly as RougeDocument tokenizes it, with its
/// tokens interned into a caller-owned TokenVocabulary and its n-gram
/// multisets kept as sorted id vectors — the form SymmetricRouge scores
/// many pairs in.
struct InternedDocument {
  InternedDocument(std::string_view text, TokenVocabulary* vocabulary);

  std::vector<uint32_t> ids;
  IdNgramCounts unigrams;
  IdNgramCounts bigrams;
};

/// Symmetrized pair score: the mean of `a` scored against `b` and `b`
/// scored against `a`, bit-identical to averaging
/// RougeDocument::ScoreAgainst in both directions over the same texts.
/// The clipped overlaps and the LCS are symmetric, so each is counted
/// once. `lcs` must hold `a.ids` as its pattern; both documents must be
/// interned into one vocabulary.
RougeTriple SymmetricRouge(const InternedDocument& a,
                           const InternedDocument& b, BitParallelLcs* lcs);

/// Convenience helpers over raw strings (candidate scored vs reference).
RougeScore Rouge1(std::string_view candidate, std::string_view reference);
RougeScore Rouge2(std::string_view candidate, std::string_view reference);
RougeScore RougeL(std::string_view candidate, std::string_view reference);
RougeTriple RougeAll(std::string_view candidate, std::string_view reference);

}  // namespace comparesets
