#include "text/rouge.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/rng.h"

namespace comparesets {
namespace {

TEST(RougeTest, IdenticalTextsScorePerfect) {
  const char* text = "the battery is great and charges quickly";
  RougeTriple scores = RougeAll(text, text);
  EXPECT_DOUBLE_EQ(scores.rouge1.f1, 1.0);
  EXPECT_DOUBLE_EQ(scores.rouge2.f1, 1.0);
  EXPECT_DOUBLE_EQ(scores.rougeL.f1, 1.0);
}

TEST(RougeTest, DisjointTextsScoreZero) {
  RougeTriple scores = RougeAll("alpha beta gamma", "delta epsilon zeta");
  EXPECT_DOUBLE_EQ(scores.rouge1.f1, 0.0);
  EXPECT_DOUBLE_EQ(scores.rouge2.f1, 0.0);
  EXPECT_DOUBLE_EQ(scores.rougeL.f1, 0.0);
}

TEST(RougeTest, Rouge1HandComputed) {
  // candidate: {the, cat, sat} reference: {the, cat, ran, far}
  // overlap = 2, P = 2/3, R = 2/4, F1 = 2·(2/3)(1/2)/((2/3)+(1/2)) = 4/7.
  RougeScore score = Rouge1("the cat sat", "the cat ran far");
  EXPECT_NEAR(score.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.recall, 0.5, 1e-12);
  EXPECT_NEAR(score.f1, 4.0 / 7.0, 1e-12);
}

TEST(RougeTest, Rouge2HandComputed) {
  // candidate bigrams: {the-cat, cat-sat}; reference: {the-cat, cat-ran}.
  // overlap = 1, P = 1/2, R = 1/2, F1 = 1/2.
  RougeScore score = Rouge2("the cat sat", "the cat ran");
  EXPECT_NEAR(score.f1, 0.5, 1e-12);
}

TEST(RougeTest, RougeLUsesSubsequenceNotSubstring) {
  // LCS("a b c d", "a x b y d") = {a, b, d} = 3.
  // P = 3/4 (wrt candidate of len 4), R = 3/5.
  RougeScore score = RougeL("a b c d", "a x b y d");
  EXPECT_NEAR(score.precision, 0.75, 1e-12);
  EXPECT_NEAR(score.recall, 0.6, 1e-12);
}

TEST(RougeTest, F1SymmetricUnderSwap) {
  // P and R swap, so F1 (harmonic mean) is symmetric.
  const char* a = "the charger works great in the car";
  const char* b = "great charger for the car and the price";
  EXPECT_NEAR(RougeAll(a, b).rouge1.f1, RougeAll(b, a).rouge1.f1, 1e-12);
  EXPECT_NEAR(RougeAll(a, b).rougeL.f1, RougeAll(b, a).rougeL.f1, 1e-12);
  EXPECT_NEAR(RougeAll(a, b).rouge2.f1, RougeAll(b, a).rouge2.f1, 1e-12);
}

TEST(RougeTest, ScoresBoundedInUnitInterval) {
  const char* pairs[][2] = {
      {"one two three", "three two one"},
      {"a a a a", "a"},
      {"x", "x y z w v u"},
  };
  for (const auto& pair : pairs) {
    RougeTriple scores = RougeAll(pair[0], pair[1]);
    for (const RougeScore* s :
         {&scores.rouge1, &scores.rouge2, &scores.rougeL}) {
      EXPECT_GE(s->f1, 0.0);
      EXPECT_LE(s->f1, 1.0);
      EXPECT_GE(s->precision, 0.0);
      EXPECT_LE(s->precision, 1.0);
      EXPECT_GE(s->recall, 0.0);
      EXPECT_LE(s->recall, 1.0);
    }
  }
}

TEST(RougeTest, EmptyTextsHandled) {
  EXPECT_DOUBLE_EQ(RougeAll("", "").rouge1.f1, 0.0);
  EXPECT_DOUBLE_EQ(RougeAll("words here", "").rouge1.f1, 0.0);
  EXPECT_DOUBLE_EQ(RougeAll("", "words here").rougeL.f1, 0.0);
}

TEST(RougeTest, SingleTokenHasNoBigrams) {
  RougeScore score = Rouge2("word", "word");
  EXPECT_DOUBLE_EQ(score.f1, 0.0);
}

TEST(RougeTest, RepeatedTokensClipped) {
  // candidate "a a a" vs reference "a": overlap clipped to 1.
  RougeScore score = Rouge1("a a a", "a");
  EXPECT_NEAR(score.precision, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.recall, 1.0, 1e-12);
}

TEST(RougeTest, CaseAndPunctuationInsensitive) {
  RougeScore exact = Rouge1("The Battery, is GREAT!", "the battery is great");
  EXPECT_DOUBLE_EQ(exact.f1, 1.0);
}

TEST(RougeDocumentTest, CachedDocumentsMatchStringApi) {
  const char* a = "the puzzle pieces fit together well";
  const char* b = "the pieces of the puzzle are well made";
  RougeDocument da(a);
  RougeDocument db(b);
  RougeTriple cached = da.ScoreAgainst(db);
  RougeTriple direct = RougeAll(a, b);
  EXPECT_DOUBLE_EQ(cached.rouge1.f1, direct.rouge1.f1);
  EXPECT_DOUBLE_EQ(cached.rouge2.f1, direct.rouge2.f1);
  EXPECT_DOUBLE_EQ(cached.rougeL.f1, direct.rougeL.f1);
}

TEST(RougeTest, RougeLAtLeastAsSelectiveAsRouge1) {
  // LCS overlap <= unigram overlap, hence R-L F1 <= R-1 F1.
  const char* a = "one two three four five six";
  const char* b = "six five four three two one";
  RougeTriple scores = RougeAll(a, b);
  EXPECT_LE(scores.rougeL.f1, scores.rouge1.f1 + 1e-12);
}

TEST(RougeTripleTest, AccumulateAndAverage) {
  RougeTriple total;
  total += RougeAll("a b", "a b");
  total += RougeAll("x", "y");
  total /= 2.0;
  EXPECT_NEAR(total.rouge1.f1, 0.5, 1e-12);
}

// --- Interned pair scoring vs the string reference -------------------------

// The reference: the string path scored in both directions and averaged.
RougeTriple ReferencePair(const std::string& a, const std::string& b) {
  RougeTriple score = RougeDocument(a).ScoreAgainst(RougeDocument(b));
  score += RougeDocument(b).ScoreAgainst(RougeDocument(a));
  score /= 2.0;
  return score;
}

RougeTriple InternedPair(const std::string& a, const std::string& b) {
  InternedDocuments docs;
  size_t da = docs.Add(a);
  size_t db = docs.Add(b);
  SymmetricRougeScorer scorer(&docs);
  scorer.SetOuter(da);
  return scorer.Score(db);
}

std::string RandomText(Rng* rng, size_t max_tokens, uint32_t alphabet) {
  static const char* kWords[] = {"the",   "battery", "Great", "case",
                                 "don't", "screen",  "fits",  "a",
                                 "price", "works",   "well",  "phone"};
  std::string text;
  size_t tokens = rng->UniformU32(static_cast<uint32_t>(max_tokens) + 1);
  for (size_t i = 0; i < tokens; ++i) {
    text += kWords[rng->UniformU32(alphabet)];
    text += rng->UniformU32(6) == 0 ? ". " : " ";
  }
  return text;
}

TEST(InternedRougeTest, SymmetricRougeBitIdenticalToStringPath) {
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    uint32_t alphabet = 2 + rng.UniformU32(11);
    std::string a = RandomText(&rng, 150, alphabet);
    std::string b = RandomText(&rng, 150, alphabet);
    RougeTriple fast = InternedPair(a, b);
    RougeTriple reference = ReferencePair(a, b);
    EXPECT_EQ(std::memcmp(&fast, &reference, sizeof(RougeTriple)), 0)
        << "a: " << a << "\nb: " << b;
  }
}

TEST(InternedRougeTest, EdgeCasesBitIdentical) {
  const char* texts[] = {"", "word", "a a a", "a b", "the cat sat",
                         "The Battery, is GREAT!"};
  for (const char* a : texts) {
    for (const char* b : texts) {
      RougeTriple fast = InternedPair(a, b);
      RougeTriple reference = ReferencePair(a, b);
      EXPECT_EQ(std::memcmp(&fast, &reference, sizeof(RougeTriple)), 0)
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(InternedRougeTest, DocumentsKeepDenseIdsAndCounts) {
  InternedDocuments docs;
  docs.Add("b a b c");
  docs.Add("c b a b");
  EXPECT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs.num_words(), 3u);
  // Bigrams: "b a", "a b", "b c", then "c b" new in the second document.
  EXPECT_EQ(docs.num_bigrams(), 4u);
  EXPECT_EQ(docs.max_tokens(), 4u);
  auto ids = docs.ids(1);
  EXPECT_EQ(std::vector<uint32_t>(ids.begin(), ids.end()),
            (std::vector<uint32_t>{2, 0, 1, 0}));
  // (id, count) lists in first-seen order within the document.
  auto unigrams = docs.unigrams(0);
  ASSERT_EQ(unigrams.size(), 3u);
  EXPECT_EQ(unigrams[0].id, 0u);
  EXPECT_EQ(unigrams[0].count, 2);
  EXPECT_EQ(unigrams[2].count, 1);
  auto bigrams = docs.bigrams(1);
  ASSERT_EQ(bigrams.size(), 3u);  // "c b", "b a", "a b".
  EXPECT_EQ(bigrams[0].id, 3u);
}

TEST(InternedRougeTest, CountListsMatchStringMultisets) {
  // Every document's (id, count) lists, read back through the words the
  // ids stand for, equal CountNgrams over Tokenize.
  Rng rng(5);
  std::vector<std::string> texts;
  for (int doc = 0; doc < 100; ++doc) {
    texts.push_back(RandomText(&rng, 80, 2 + rng.UniformU32(11)));
  }
  texts.push_back("");
  texts.push_back("single");
  InternedDocuments docs;
  TokenInterner words;  // Replays the same interning to name the ids.
  for (const std::string& text : texts) {
    size_t doc = docs.Add(text);
    std::vector<uint32_t> ids;
    words.AppendIds(text, &ids);
    auto doc_ids = docs.ids(doc);
    ASSERT_EQ(std::vector<uint32_t>(doc_ids.begin(), doc_ids.end()), ids);
    std::vector<std::string> tokens = Tokenize(text);
    NgramCounts unigrams;
    for (const auto& [id, count] : docs.unigrams(doc)) {
      unigrams[std::string(words.Word(id))] += count;
    }
    EXPECT_EQ(unigrams, CountNgrams(tokens, 1)) << text;
    int bigram_total = 0;
    for (const auto& [id, count] : docs.bigrams(doc)) bigram_total += count;
    EXPECT_EQ(bigram_total, TotalCount(CountNgrams(tokens, 2))) << text;
    EXPECT_EQ(docs.bigrams(doc).size(), CountNgrams(tokens, 2).size())
        << text;
  }
}

TEST(InternedRougeTest, ScorerReusedAcrossOuterDocuments) {
  // One scorer, every ordered pair: each SetOuter must fully clear the
  // previous outer document's count tables and LCS masks.
  Rng rng(41);
  std::vector<std::string> texts;
  for (int doc = 0; doc < 30; ++doc) {
    texts.push_back(RandomText(&rng, 140, 2 + rng.UniformU32(11)));
  }
  texts.push_back("");
  InternedDocuments docs;
  for (const std::string& text : texts) docs.Add(text);
  SymmetricRougeScorer scorer(&docs);
  for (size_t a = 0; a < texts.size(); ++a) {
    scorer.SetOuter(a);
    for (size_t b = 0; b < texts.size(); ++b) {
      RougeTriple fast = scorer.Score(b);
      RougeTriple reference = ReferencePair(texts[a], texts[b]);
      EXPECT_EQ(std::memcmp(&fast, &reference, sizeof(RougeTriple)), 0)
          << "a " << a << " b " << b;
    }
  }
}

}  // namespace
}  // namespace comparesets
