#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "text/lcs.h"
#include "text/ngram.h"
#include "util/rng.h"

namespace comparesets {
namespace {

std::vector<std::string> Words(std::initializer_list<const char*> words) {
  return std::vector<std::string>(words.begin(), words.end());
}

TEST(NgramTest, UnigramCounts) {
  NgramCounts counts = CountNgrams(Words({"a", "b", "a"}), 1);
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at("a"), 2);
  EXPECT_EQ(counts.at("b"), 1);
}

TEST(NgramTest, BigramCounts) {
  NgramCounts counts = CountNgrams(Words({"a", "b", "a", "b"}), 2);
  EXPECT_EQ(TotalCount(counts), 3);
  EXPECT_EQ(counts.at(std::string("a") + '\x1f' + "b"), 2);
  EXPECT_EQ(counts.at(std::string("b") + '\x1f' + "a"), 1);
}

TEST(NgramTest, OrderLargerThanSequenceIsEmpty) {
  EXPECT_TRUE(CountNgrams(Words({"a", "b"}), 3).empty());
  EXPECT_TRUE(CountNgrams({}, 1).empty());
  EXPECT_TRUE(CountNgrams(Words({"a"}), 0).empty());
}

TEST(NgramTest, SeparatorPreventsCollisions) {
  // Tokens "ab"+"c" must not collide with "a"+"bc".
  NgramCounts left = CountNgrams(Words({"ab", "c"}), 2);
  NgramCounts right = CountNgrams(Words({"a", "bc"}), 2);
  EXPECT_EQ(ClippedOverlap(left, right), 0);
}

TEST(ClippedOverlapTest, ClipsAtMinimumCount) {
  NgramCounts a = CountNgrams(Words({"x", "x", "x", "y"}), 1);
  NgramCounts b = CountNgrams(Words({"x", "y", "y"}), 1);
  // min(3,1) for x + min(1,2) for y = 2.
  EXPECT_EQ(ClippedOverlap(a, b), 2);
  EXPECT_EQ(ClippedOverlap(b, a), 2);  // Symmetric.
}

TEST(ClippedOverlapTest, DisjointIsZero) {
  NgramCounts a = CountNgrams(Words({"p"}), 1);
  NgramCounts b = CountNgrams(Words({"q"}), 1);
  EXPECT_EQ(ClippedOverlap(a, b), 0);
  EXPECT_EQ(ClippedOverlap(a, {}), 0);
}

TEST(LcsTest, ClassicExamples) {
  EXPECT_EQ(LcsLength(Words({"a", "b", "c", "d"}), Words({"a", "c", "d"})), 3u);
  EXPECT_EQ(LcsLength(Words({"a", "b"}), Words({"b", "a"})), 1u);
  EXPECT_EQ(LcsLength(Words({"x"}), Words({"y"})), 0u);
}

TEST(LcsTest, EmptySequences) {
  EXPECT_EQ(LcsLength({}, Words({"a"})), 0u);
  EXPECT_EQ(LcsLength(Words({"a"}), {}), 0u);
  EXPECT_EQ(LcsLength({}, {}), 0u);
}

TEST(LcsTest, IdenticalSequences) {
  auto seq = Words({"the", "battery", "is", "great"});
  EXPECT_EQ(LcsLength(seq, seq), seq.size());
}

TEST(LcsTest, SubsequenceNotSubstring) {
  // LCS is order-preserving but not contiguous.
  EXPECT_EQ(LcsLength(Words({"a", "x", "b", "y", "c"}),
                      Words({"a", "b", "c"})),
            3u);
}

TEST(LcsTest, Symmetric) {
  auto a = Words({"one", "two", "three", "four", "five"});
  auto b = Words({"two", "five", "one", "three"});
  EXPECT_EQ(LcsLength(a, b), LcsLength(b, a));
}

TEST(LcsTest, RepeatedTokens) {
  EXPECT_EQ(LcsLength(Words({"a", "a", "a"}), Words({"a", "a"})), 2u);
}

TEST(LcsTest, UpperBoundedByShorterLength) {
  auto a = Words({"a", "b", "c", "d", "e", "f"});
  auto b = Words({"c", "d"});
  EXPECT_LE(LcsLength(a, b), b.size());
}

// --- Integer-id fast paths vs the string reference -------------------------

std::vector<uint32_t> RandomIds(Rng* rng, size_t length, uint32_t alphabet) {
  std::vector<uint32_t> ids(length);
  for (uint32_t& id : ids) id = rng->UniformU32(alphabet);
  return ids;
}

std::vector<std::string> AsWords(const std::vector<uint32_t>& ids) {
  std::vector<std::string> words;
  for (uint32_t id : ids) words.push_back("w" + std::to_string(id));
  return words;
}

size_t BitParallelLcsLength(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
  uint32_t alphabet = 1;
  for (uint32_t id : a) alphabet = std::max(alphabet, id + 1);
  for (uint32_t id : b) alphabet = std::max(alphabet, id + 1);
  BitParallelLcs lcs(alphabet, a.size());
  lcs.SetPattern(a);
  return lcs.Length(b);
}

TEST(BitParallelLcsTest, MatchesDynamicProgramAcrossWordBoundaries) {
  // Lengths straddle the 64-bit word edges; small alphabets force heavy
  // repeats, hence long carry chains across words.
  const size_t kLengths[] = {0, 1, 2, 63, 64, 65, 127, 128, 129, 200};
  Rng rng(17);
  for (uint32_t alphabet : {2u, 3u, 5u, 10u, 26u, 50u}) {
    // One matcher reused for every pattern, as the alignment pass does:
    // each SetPattern must fully clear the previous pattern's rows.
    BitParallelLcs lcs(alphabet, 200);
    for (size_t la : kLengths) {
      std::vector<uint32_t> a = RandomIds(&rng, la, alphabet);
      lcs.SetPattern(a);
      for (size_t lb : kLengths) {
        std::vector<uint32_t> b = RandomIds(&rng, lb, alphabet);
        size_t expected = LcsLength(AsWords(a), AsWords(b));
        EXPECT_EQ(lcs.Length(b), expected)
            << "alphabet " << alphabet << " |a| " << la << " |b| " << lb;
        EXPECT_EQ(BitParallelLcsLength(b, a), expected);
      }
    }
  }
}

TEST(BitParallelLcsTest, EveryPatternLengthMatchesDynamicProgram) {
  // Every pattern length 0..200 covers the 1-word, 2-word and multi-word
  // paths and each of their edges, each against texts of a few lengths.
  Rng rng(29);
  BitParallelLcs lcs(6, 200);
  for (size_t la = 0; la <= 200; ++la) {
    std::vector<uint32_t> a = RandomIds(&rng, la, 2 + la % 5);
    lcs.SetPattern(a);
    EXPECT_EQ(lcs.Length(a), la);
    for (size_t lb : {size_t{0}, size_t{1}, la / 2, la, size_t{150}}) {
      std::vector<uint32_t> b = RandomIds(&rng, lb, 2 + lb % 5);
      EXPECT_EQ(lcs.Length(b), LcsLength(AsWords(a), AsWords(b)))
          << "|a| " << la << " |b| " << lb;
    }
  }
}

TEST(BitParallelLcsTest, IdenticalAndDisjointSequences) {
  std::vector<uint32_t> seq(130);
  for (size_t i = 0; i < seq.size(); ++i) seq[i] = i % 7;
  EXPECT_EQ(BitParallelLcsLength(seq, seq), seq.size());
  EXPECT_EQ(BitParallelLcsLength({0, 1, 2}, {3, 4}), 0u);
  EXPECT_EQ(BitParallelLcsLength({}, {}), 0u);
}

}  // namespace
}  // namespace comparesets
