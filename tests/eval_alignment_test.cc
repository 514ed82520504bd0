#include "eval/alignment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include "data/synthetic.h"
#include "eval/information_loss.h"
#include "test_fixtures.h"
#include "util/rng.h"

namespace comparesets {
namespace {

class AlignmentTest : public ::testing::Test {
 protected:
  AlignmentTest()
      : corpus_(testing::WorkingExampleCorpus()),
        instance_(testing::WorkingExampleInstance(corpus_)),
        vectors_(BuildInstanceVectors(OpinionModel::Binary(5), instance_)) {}

  Corpus corpus_;
  ProblemInstance instance_;
  InstanceVectors vectors_;
};

TEST_F(AlignmentTest, PairCountsCorrect) {
  std::vector<Selection> selections = {{0, 1}, {0}, {0, 1}};
  AlignmentScores scores = MeasureAlignment(instance_, selections);
  // Target pairs: |S1|·(|S2|+|S3|) = 2·(1+2) = 6.
  EXPECT_EQ(scores.target_pairs, 6u);
  // Among pairs: 2·1 + 2·2 + 1·2 = 8.
  EXPECT_EQ(scores.among_pairs, 8u);
}

TEST_F(AlignmentTest, ScoresWithinUnitInterval) {
  std::vector<Selection> selections = {{0, 1, 2}, {0, 1}, {2, 3}};
  AlignmentScores scores = MeasureAlignment(instance_, selections);
  for (const RougeTriple* t :
       {&scores.target_vs_comparative, &scores.among_items}) {
    EXPECT_GE(t->rouge1.f1, 0.0);
    EXPECT_LE(t->rouge1.f1, 1.0);
    EXPECT_GE(t->rougeL.f1, 0.0);
    EXPECT_LE(t->rougeL.f1, 1.0);
  }
}

TEST_F(AlignmentTest, SharedAspectSelectionsScoreHigher) {
  // Aspect-aligned: target talks battery/lens/quality; comparatives pick
  // their battery-ish review (index 2) vs price-only review (index 3).
  std::vector<Selection> aligned = {{0}, {2}, {2}};
  std::vector<Selection> misaligned = {{0}, {3}, {3}};
  AlignmentScores a = MeasureAlignment(instance_, aligned);
  AlignmentScores b = MeasureAlignment(instance_, misaligned);
  EXPECT_GT(a.target_vs_comparative.rouge1.f1,
            b.target_vs_comparative.rouge1.f1);
}

TEST_F(AlignmentTest, SubsetRestrictsPairs) {
  std::vector<Selection> selections = {{0, 1}, {0}, {0, 1}};
  AlignmentScores subset =
      MeasureAlignmentSubset(instance_, selections, {0, 1});
  EXPECT_EQ(subset.target_pairs, 2u);  // |S1|·|S2| only.
  EXPECT_EQ(subset.among_pairs, 2u);
}

TEST_F(AlignmentTest, SubsetWithoutTargetHasNoTargetPairs) {
  std::vector<Selection> selections = {{0, 1}, {0}, {0, 1}};
  AlignmentScores subset =
      MeasureAlignmentSubset(instance_, selections, {1, 2});
  EXPECT_EQ(subset.target_pairs, 0u);
  EXPECT_EQ(subset.among_pairs, 2u);
  EXPECT_DOUBLE_EQ(subset.target_vs_comparative.rougeL.f1, 0.0);
}

TEST_F(AlignmentTest, EmptySelectionsYieldNoPairs) {
  std::vector<Selection> selections = {{}, {}, {}};
  AlignmentScores scores = MeasureAlignment(instance_, selections);
  EXPECT_EQ(scores.target_pairs, 0u);
  EXPECT_EQ(scores.among_pairs, 0u);
  EXPECT_DOUBLE_EQ(scores.among_items.rouge1.f1, 0.0);
}

TEST_F(AlignmentTest, IdenticalTextEverywhereScoresOne) {
  // Build a dedicated corpus where all reviews share identical text.
  Corpus corpus("same");
  corpus.catalog().Intern("battery");
  for (const char* id : {"a", "b"}) {
    Product p;
    p.id = id;
    for (int r = 0; r < 2; ++r) {
      Review review = testing::MakeReview(
          std::string(id) + std::to_string(r), {{0, testing::kPos}},
          "identical words in every review");
      p.reviews.push_back(review);
    }
    if (std::string(id) == "a") p.also_bought = {"b"};
    corpus.AddProduct(std::move(p)).CheckOK();
  }
  corpus.Finalize();
  ProblemInstance instance;
  instance.items = {corpus.Find("a"), corpus.Find("b")};
  AlignmentScores scores = MeasureAlignment(instance, {{0, 1}, {0, 1}});
  EXPECT_DOUBLE_EQ(scores.among_items.rouge1.f1, 1.0);
  EXPECT_DOUBLE_EQ(scores.among_items.rougeL.f1, 1.0);
}

TEST_F(AlignmentTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Deadline deadline(1e-9);
  while (!deadline.Expired()) {
  }
  ExecControl control;
  control.deadline = &deadline;
  auto scores = MeasureAlignment(instance_, {{0, 1}, {0}, {0, 1}}, &control);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(AlignmentTest, CancelledTokenReturnsCancelled) {
  CancelToken cancel;
  cancel.Cancel();
  ExecControl control;
  control.cancel = &cancel;
  auto scores = MeasureAlignment(instance_, {{0, 1}, {0}, {0, 1}}, &control);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kCancelled);
}

TEST_F(AlignmentTest, LiveControlMatchesUncontrolledCall) {
  Deadline deadline(3600.0);
  std::atomic<uint64_t> iterations{0};
  ExecControl control;
  control.deadline = &deadline;
  control.iterations = &iterations;
  std::vector<Selection> selections = {{0, 1, 2}, {0, 1}, {2, 3}};
  auto controlled = MeasureAlignment(instance_, selections, &control);
  ASSERT_TRUE(controlled.ok()) << controlled.status();
  AlignmentScores plain = MeasureAlignment(instance_, selections);
  EXPECT_EQ(std::memcmp(&controlled.value(), &plain, sizeof(plain)), 0);
  // Alignment is not solver work: the iteration counter stays put.
  EXPECT_EQ(iterations.load(), 0u);
}

// --- Fast path vs the string reference --------------------------------------

RougeTriple Mean(const std::vector<RougeTriple>& scores) {
  RougeTriple mean;
  if (scores.empty()) return mean;
  for (const RougeTriple& s : scores) mean += s;
  mean /= static_cast<double>(scores.size());
  return mean;
}

// The string implementation MeasureAlignment replaced: every pair scored
// through RougeDocument in both directions and averaged, pairs in the
// order (position a < b in `items`, reviews of a, reviews of b).
AlignmentScores ReferenceAlignment(const ProblemInstance& instance,
                                   const std::vector<Selection>& selections,
                                   const std::vector<size_t>& items) {
  std::vector<std::vector<RougeDocument>> docs(items.size());
  for (size_t t = 0; t < items.size(); ++t) {
    for (size_t review : selections[items[t]]) {
      docs[t].emplace_back(instance.items[items[t]]->reviews[review].text);
    }
  }
  std::vector<RougeTriple> target_scores;
  std::vector<RougeTriple> among_scores;
  for (size_t a = 0; a < docs.size(); ++a) {
    for (size_t b = a + 1; b < docs.size(); ++b) {
      for (const RougeDocument& da : docs[a]) {
        for (const RougeDocument& db : docs[b]) {
          RougeTriple score = da.ScoreAgainst(db);
          score += db.ScoreAgainst(da);
          score /= 2.0;
          among_scores.push_back(score);
          if (items[a] == 0 || items[b] == 0) target_scores.push_back(score);
        }
      }
    }
  }
  AlignmentScores out;
  out.target_vs_comparative = Mean(target_scores);
  out.among_items = Mean(among_scores);
  out.target_pairs = target_scores.size();
  out.among_pairs = among_scores.size();
  return out;
}

AlignmentScores ReferenceAlignment(const ProblemInstance& instance,
                                   const std::vector<Selection>& selections) {
  std::vector<size_t> all(instance.num_items());
  std::iota(all.begin(), all.end(), 0);
  return ReferenceAlignment(instance, selections, all);
}

// memcmp-exact: every bit of both means, and both pair counts.
void ExpectBitIdentical(const AlignmentScores& fast,
                        const AlignmentScores& reference,
                        const std::string& context) {
  EXPECT_EQ(std::memcmp(&fast.target_vs_comparative,
                        &reference.target_vs_comparative, sizeof(RougeTriple)),
            0)
      << context;
  EXPECT_EQ(std::memcmp(&fast.among_items, &reference.among_items,
                        sizeof(RougeTriple)),
            0)
      << context;
  EXPECT_EQ(fast.target_pairs, reference.target_pairs) << context;
  EXPECT_EQ(fast.among_pairs, reference.among_pairs) << context;
}

// Up to m distinct random review indices per item (never fewer than 1).
std::vector<Selection> RandomSelections(const ProblemInstance& instance,
                                        size_t m, Rng* rng) {
  std::vector<Selection> selections;
  for (const Product* item : instance.items) {
    Selection all(item->reviews.size());
    std::iota(all.begin(), all.end(), 0);
    size_t take = 1 + rng->UniformU32(static_cast<uint32_t>(
                          std::min(m, all.size())));
    for (size_t i = 0; i < take; ++i) {
      std::swap(all[i], all[i + rng->UniformU32(
                                    static_cast<uint32_t>(all.size() - i))]);
    }
    all.resize(take);
    selections.push_back(all);
  }
  return selections;
}

// Besides a synthetic catalog, the oracle checks a fixture of four items
// whose reviews take the shapes the fast path branches on:
// token counts on each side of the LCS's 64-bit word edges (1-word,
// 2-word and multi-word patterns), heavy repeats that force clipping,
// and reviews with no tokens at all.
class AlignmentOracleTest : public ::testing::Test {
 protected:
  AlignmentOracleTest() : corpus_("shapes") {
    corpus_.catalog().Intern("battery");
    const size_t kLengths[] = {63, 64, 65, 127, 128, 129, 200, 1, 2, 17};
    Rng rng(61);
    const char* ids[] = {"t", "c1", "c2", "c3"};
    for (size_t p = 0; p < 4; ++p) {
      Product product;
      product.id = ids[p];
      std::vector<std::string> texts;
      for (size_t length : kLengths) {
        // A small alphabet that differs a little per item, so pairs share
        // most words and repeat them often.
        texts.push_back(Words(&rng, length, 3 + p));
      }
      texts.push_back(Repeat("good", 90) + " " + Repeat("battery life", 40));
      texts.push_back(Repeat("good good bad", 30));
      texts.push_back("");
      texts.push_back("!!! ... ' -- ?");
      for (size_t r = 0; r < texts.size(); ++r) {
        product.reviews.push_back(testing::MakeReview(
            std::string(ids[p]) + "-r" + std::to_string(r),
            {{0, testing::kPos}}, texts[r]));
      }
      corpus_.AddProduct(std::move(product)).CheckOK();
    }
    corpus_.Finalize();
    for (const char* id : ids) instance_.items.push_back(corpus_.Find(id));
  }

  static std::string Words(Rng* rng, size_t length, uint32_t alphabet) {
    static const char* kWords[] = {"good", "Battery", "life", "bad",
                                   "don't", "screen", "4", "case"};
    std::string text;
    for (size_t i = 0; i < length; ++i) {
      text += kWords[rng->UniformU32(alphabet)];
      text += rng->UniformU32(5) == 0 ? ", " : " ";
    }
    return text;
  }
  static std::string Repeat(const std::string& phrase, size_t times) {
    std::string text;
    for (size_t i = 0; i < times; ++i) text += phrase + " ";
    return text;
  }
  size_t Reviews(size_t item) const {
    return instance_.items[item]->reviews.size();
  }

  Corpus corpus_;
  ProblemInstance instance_;
};

TEST_F(AlignmentOracleTest, BitIdenticalToStringReferenceOnSyntheticCatalog) {
  auto config = DefaultConfig("Cellphone", 80);
  ASSERT_TRUE(config.ok()) << config.status();
  config.value().seed = 7;
  auto corpus = GenerateCorpus(config.value());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  std::vector<ProblemInstance> instances = corpus.value().BuildInstances();
  ASSERT_GE(instances.size(), 5u);
  Rng rng(99);
  size_t checked = 0;
  for (size_t m : {3, 5, 10}) {
    for (size_t i = 0; i < std::min<size_t>(instances.size(), 8); ++i) {
      std::vector<Selection> selections =
          RandomSelections(instances[i], m, &rng);
      ExpectBitIdentical(MeasureAlignment(instances[i], selections),
                         ReferenceAlignment(instances[i], selections),
                         "m " + std::to_string(m) + " instance " +
                             std::to_string(i));
      ++checked;
    }
  }
  EXPECT_GE(checked, 15u);
}

TEST_F(AlignmentOracleTest, EveryReviewOfEveryItemBitIdentical) {
  std::vector<Selection> all;
  for (size_t item = 0; item < 4; ++item) {
    Selection selection(Reviews(item));
    std::iota(selection.begin(), selection.end(), 0);
    all.push_back(selection);
  }
  AlignmentScores fast = MeasureAlignment(instance_, all);
  EXPECT_EQ(fast.among_pairs, 6 * Reviews(0) * Reviews(0));
  ExpectBitIdentical(fast, ReferenceAlignment(instance_, all), "all");
}

TEST_F(AlignmentOracleTest, RandomSelectionsWithEmptyItemsBitIdentical) {
  Rng rng(67);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Selection> selections;
    for (size_t item = 0; item < 4; ++item) {
      // Every fourth item selection is empty; the rest keep each review
      // with probability 1/3.
      Selection selection;
      if (rng.UniformU32(4) != 0) {
        for (size_t r = 0; r < Reviews(item); ++r) {
          if (rng.UniformU32(3) == 0) selection.push_back(r);
        }
      }
      selections.push_back(selection);
    }
    ExpectBitIdentical(MeasureAlignment(instance_, selections),
                       ReferenceAlignment(instance_, selections),
                       "trial " + std::to_string(trial));
  }
}

TEST_F(AlignmentOracleTest, SubsetsBitIdentical) {
  std::vector<Selection> selections = {
      {0, 3, 6, 10, 12}, {1, 4, 7, 11}, {}, {2, 5, 8, 9, 13}};
  const std::vector<std::vector<size_t>> subsets = {
      {1, 3}, {3, 1}, {1, 2, 3}, {0, 3}, {3, 0, 1}, {2}, {}};
  for (const std::vector<size_t>& items : subsets) {
    std::string context = "items";
    for (size_t item : items) context += " " + std::to_string(item);
    AlignmentScores fast =
        MeasureAlignmentSubset(instance_, selections, items);
    ExpectBitIdentical(fast,
                       ReferenceAlignment(instance_, selections, items),
                       context);
    if (std::find(items.begin(), items.end(), size_t{0}) == items.end()) {
      EXPECT_EQ(fast.target_pairs, 0u) << context;
    }
  }
}

// --- Information loss (Figure 11) ------------------------------------------

TEST_F(AlignmentTest, InformationLossZeroForFullSelection) {
  std::vector<Selection> full;
  for (size_t i = 0; i < 3; ++i) {
    Selection all(vectors_.num_reviews(i));
    std::iota(all.begin(), all.end(), 0);
    full.push_back(all);
  }
  InformationLoss loss = MeasureInformationLoss(vectors_, full);
  EXPECT_NEAR(loss.delta_target, 0.0, 1e-12);
  EXPECT_NEAR(loss.delta_all_items, 0.0, 1e-12);
  EXPECT_NEAR(loss.cosine_target, 1.0, 1e-12);
  EXPECT_NEAR(loss.cosine_all_items, 1.0, 1e-12);
}

TEST_F(AlignmentTest, InformationLossPositiveForPartialSelection) {
  std::vector<Selection> partial = {{2}, {3}, {3}};
  InformationLoss loss = MeasureInformationLoss(vectors_, partial);
  EXPECT_GT(loss.delta_target, 0.0);
  EXPECT_LT(loss.cosine_target, 1.0);
  EXPECT_GE(loss.cosine_target, 0.0);
}

TEST_F(AlignmentTest, LargerSelectionsLoseLessOnWorkingExample) {
  // m = 3 contains a proportional triple (zero loss); m = 1 cannot.
  std::vector<Selection> m1 = {{0}, {0}, {0}};
  std::vector<Selection> m3 = {{0, 1, 2}, {0, 1, 2}, {0, 1, 2}};
  InformationLoss loss1 = MeasureInformationLoss(vectors_, m1);
  InformationLoss loss3 = MeasureInformationLoss(vectors_, m3);
  EXPECT_LE(loss3.delta_target, loss1.delta_target + 1e-12);
}

}  // namespace
}  // namespace comparesets
