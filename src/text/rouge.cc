#include "text/rouge.h"

#include <algorithm>

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

using IdCount = InternedDocuments::IdCount;

/// Writes each listed count into `table` at its id, or zero if `clear`.
void WriteCounts(std::span<const IdCount> counts, bool clear,
                 std::vector<int>* table) {
  for (const IdCount& entry : counts) {
    (*table)[entry.id] = clear ? 0 : entry.count;
  }
}

/// Σ min(count, table[id]) over the list: the clipped overlap of its
/// multiset with the one written into the table.
int TableOverlap(std::span<const IdCount> counts,
                 const std::vector<int>& table) {
  int overlap = 0;
  for (const IdCount& entry : counts) {
    overlap += std::min(entry.count, table[entry.id]);
  }
  return overlap;
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

size_t InternedDocuments::Add(std::string_view text) {
  size_t begin = ids_.size();
  words_.AppendIds(text, &ids_);
  auto ids = std::span<const uint32_t>(ids_).subspan(begin);
  max_tokens_ = std::max(max_tokens_, ids.size());
  bigram_ids_.clear();
  for (size_t i = 1; i < ids.size(); ++i) {
    // The packed pair is its own one-to-one hash.
    uint64_t key = uint64_t{ids[i - 1]} << 32 | ids[i];
    bigram_ids_.push_back(
        bigram_index_.FindOrAdd(key, [](uint32_t) { return true; }).first);
  }
  Count(ids, words_.size(), &unigrams_);
  Count(bigram_ids_, bigram_index_.size(), &bigrams_);
  starts_.push_back({ids_.size(), unigrams_.size(), bigrams_.size()});
  return size() - 1;
}

void InternedDocuments::Count(std::span<const uint32_t> keys,
                              size_t vocabulary, std::vector<IdCount>* out) {
  if (tally_.size() < vocabulary) tally_.resize(2 * vocabulary, 0);
  size_t first = out->size();
  for (uint32_t key : keys) {
    if (tally_[key]++ == 0) out->push_back({key, 0});
  }
  for (size_t i = first; i < out->size(); ++i) {
    IdCount& entry = (*out)[i];
    entry.count = tally_[entry.id];
    tally_[entry.id] = 0;
  }
}

SymmetricRougeScorer::SymmetricRougeScorer(const InternedDocuments* docs)
    : docs_(*docs),
      unigram_table_(docs->num_words(), 0),
      bigram_table_(docs->num_bigrams(), 0),
      lcs_(docs->num_words(), docs->max_tokens()) {}

void SymmetricRougeScorer::SetOuter(size_t a) {
  if (has_outer_) {
    WriteCounts(docs_.unigrams(outer_), true, &unigram_table_);
    WriteCounts(docs_.bigrams(outer_), true, &bigram_table_);
  }
  WriteCounts(docs_.unigrams(a), false, &unigram_table_);
  WriteCounts(docs_.bigrams(a), false, &bigram_table_);
  lcs_.SetPattern(docs_.ids(a));
  outer_ = a;
  outer_tokens_ = static_cast<int>(docs_.ids(a).size());
  has_outer_ = true;
}

RougeTriple SymmetricRougeScorer::Score(size_t b) {
  int unigram_overlap = TableOverlap(docs_.unigrams(b), unigram_table_);
  int bigram_overlap = TableOverlap(docs_.bigrams(b), bigram_table_);
  int lcs_length = static_cast<int>(lcs_.Length(docs_.ids(b)));
  int b_tokens = static_cast<int>(docs_.ids(b).size());
  RougeTriple score = FromOverlaps(unigram_overlap, bigram_overlap,
                                   lcs_length, outer_tokens_, b_tokens);
  score += FromOverlaps(unigram_overlap, bigram_overlap, lcs_length,
                        b_tokens, outer_tokens_);
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
