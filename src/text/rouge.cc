#include "text/rouge.h"

namespace comparesets {

namespace {

RougeScore FromCounts(int overlap, int candidate_total, int reference_total) {
  RougeScore score;
  if (candidate_total > 0) {
    score.precision = static_cast<double>(overlap) / candidate_total;
  }
  if (reference_total > 0) {
    score.recall = static_cast<double>(overlap) / reference_total;
  }
  if (score.precision + score.recall > 0.0) {
    score.f1 = 2.0 * score.precision * score.recall /
               (score.precision + score.recall);
  }
  return score;
}

int BigramTotal(int tokens) { return tokens >= 2 ? tokens - 1 : 0; }

/// Candidate-vs-reference triple from the pair's overlap counts.
RougeTriple FromOverlaps(int unigram_overlap, int bigram_overlap, int lcs,
                         int candidate_tokens, int reference_tokens) {
  RougeTriple out;
  out.rouge1 = FromCounts(unigram_overlap, candidate_tokens, reference_tokens);
  out.rouge2 = FromCounts(bigram_overlap, BigramTotal(candidate_tokens),
                          BigramTotal(reference_tokens));
  out.rougeL = FromCounts(lcs, candidate_tokens, reference_tokens);
  return out;
}

}  // namespace

RougeTriple& RougeTriple::operator+=(const RougeTriple& other) {
  auto add = [](RougeScore& a, const RougeScore& b) {
    a.precision += b.precision;
    a.recall += b.recall;
    a.f1 += b.f1;
  };
  add(rouge1, other.rouge1);
  add(rouge2, other.rouge2);
  add(rougeL, other.rougeL);
  return *this;
}

RougeTriple& RougeTriple::operator/=(double denom) {
  auto div = [denom](RougeScore& s) {
    s.precision /= denom;
    s.recall /= denom;
    s.f1 /= denom;
  };
  div(rouge1);
  div(rouge2);
  div(rougeL);
  return *this;
}

RougeDocument::RougeDocument(std::string_view text)
    : tokens_(Tokenize(text)),
      unigrams_(CountNgrams(tokens_, 1)),
      bigrams_(CountNgrams(tokens_, 2)) {}

RougeTriple RougeDocument::ScoreAgainst(const RougeDocument& reference) const {
  return FromOverlaps(ClippedOverlap(unigrams_, reference.unigrams_),
                      ClippedOverlap(bigrams_, reference.bigrams_),
                      static_cast<int>(LcsLength(tokens_, reference.tokens_)),
                      static_cast<int>(tokens_.size()),
                      static_cast<int>(reference.tokens_.size()));
}

InternedDocument::InternedDocument(std::string_view text,
                                   TokenVocabulary* vocabulary) {
  for (const std::string& token : Tokenize(text)) {
    ids.push_back(vocabulary->Intern(token));
  }
  unigrams = CountIdNgrams(ids, 1);
  bigrams = CountIdNgrams(ids, 2);
}

RougeTriple SymmetricRouge(const InternedDocument& a,
                           const InternedDocument& b, BitParallelLcs* lcs) {
  int unigram_overlap = ClippedOverlap(a.unigrams, b.unigrams);
  int bigram_overlap = ClippedOverlap(a.bigrams, b.bigrams);
  int lcs_length = static_cast<int>(lcs->Length(b.ids));
  int a_tokens = static_cast<int>(a.ids.size());
  int b_tokens = static_cast<int>(b.ids.size());
  RougeTriple score = FromOverlaps(unigram_overlap, bigram_overlap,
                                   lcs_length, a_tokens, b_tokens);
  score += FromOverlaps(unigram_overlap, bigram_overlap, lcs_length,
                        b_tokens, a_tokens);
  score /= 2.0;
  return score;
}

RougeScore Rouge1(std::string_view candidate, std::string_view reference) {
  return RougeDocument(candidate).ScoreAgainst(RougeDocument(reference)).rouge1;
}

RougeScore Rouge2(std::string_view candidate, std::string_view reference) {
  return RougeDocument(candidate).ScoreAgainst(RougeDocument(reference)).rouge2;
}

RougeScore RougeL(std::string_view candidate, std::string_view reference) {
  return RougeDocument(candidate).ScoreAgainst(RougeDocument(reference)).rougeL;
}

RougeTriple RougeAll(std::string_view candidate, std::string_view reference) {
  return RougeDocument(candidate).ScoreAgainst(RougeDocument(reference));
}

}  // namespace comparesets
