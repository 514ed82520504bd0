#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "text/stopwords.h"
#include "util/rng.h"

namespace comparesets {
namespace {

TEST(TokenizerTest, LowercasesAndSplitsOnPunctuation) {
  EXPECT_EQ(Tokenize("Hello, World! It's GREAT."),
            (std::vector<std::string>{"hello", "world", "its", "great"}));
}

TEST(TokenizerTest, KeepsNumbers) {
  EXPECT_EQ(Tokenize("rated 4 out of 5 stars"),
            (std::vector<std::string>{"rated", "4", "out", "of", "5",
                                      "stars"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... !!! ---").empty());
}

TEST(TokenizerTest, ApostrophesDropped) {
  EXPECT_EQ(Tokenize("don't can't"),
            (std::vector<std::string>{"dont", "cant"}));
}

TEST(TokenizerTest, MinTokenLengthFilters) {
  TokenizerOptions options;
  options.min_token_length = 3;
  EXPECT_EQ(Tokenize("a big cat on tv", options),
            (std::vector<std::string>{"big", "cat"}));
}

TEST(TokenizerTest, NoLowercaseOption) {
  TokenizerOptions options;
  options.lowercase = false;
  EXPECT_EQ(Tokenize("Hello World", options),
            (std::vector<std::string>{"Hello", "World"}));
}

// --- TokenInterner vs Tokenize + string interning -------------------------

// The reference: Tokenize, then give each distinct string the next id.
class StringInterner {
 public:
  std::vector<uint32_t> Ids(std::string_view text) {
    std::vector<uint32_t> ids;
    for (const std::string& token : Tokenize(text)) {
      ids.push_back(
          ids_.try_emplace(token, static_cast<uint32_t>(ids_.size()))
              .first->second);
    }
    return ids;
  }
  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

// Feeds every text through one TokenInterner and one StringInterner, in
// order, and expects the same id sequences and the same words.
void ExpectSameIds(const std::vector<std::string>& texts) {
  TokenInterner interner;
  StringInterner reference;
  for (const std::string& text : texts) {
    std::vector<uint32_t> ids;
    interner.AppendIds(text, &ids);
    std::vector<std::string> tokens = Tokenize(text);
    ASSERT_EQ(ids, reference.Ids(text)) << "text: " << text;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(interner.Word(ids[i]), tokens[i]);
    }
  }
  EXPECT_EQ(interner.size(), reference.size());
}

TEST(TokenInternerTest, AppendsIdsAfterExistingOnes) {
  TokenInterner interner;
  std::vector<uint32_t> ids = {42};
  interner.AppendIds("b A b, c", &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{42, 0, 1, 0, 2}));
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.Word(1), "a");
}

TEST(TokenInternerTest, MatchesTokenizeOnAdversarialText) {
  std::string long_token(300, 'x');
  std::string long_mixed;
  for (int i = 0; i < 700; ++i) long_mixed += "aB3'"[i % 4];
  ExpectSameIds({
      // Bytes >= 0x80 (UTF-8 and stray Latin-1) with mixed case.
      "Caf\xc3\xa9 CAF\xc3\x89 caf\xe9 na\xefve \xff\xfe\x80 \xc3\xa9t\xc3\xa9",
      "MiXeD mixed MIXED mIxEd",
      // Apostrophes inside words, at word edges and in runs.
      "don't dont 'quoted' ''' it''s 'tis rock'n'roll ' '' x'",
      "'a' a'' ''a '",
      // Digits and runs of punctuation.
      "4.5/5 stars!!! 100% -- 3,000mAh...?! 2x 007 #1 a_b a-b",
      "...!!!,,,;;;:::---",
      // Tokens longer than 256 bytes, new and repeated.
      long_token + " " + long_token + "y " + long_token,
      long_mixed,
      // Empty and whitespace-only reviews.
      "",
      " \t\n\r  \v\f ",
      // NUL bytes separate tokens like any other non-alnum byte.
      std::string("nul\0byte\0\0end", 13),
      "the THE The tHe",
  });
}

TEST(TokenInternerTest, MatchesTokenizeOnRandomBytes) {
  // Random bytes over an alphabet that mixes every byte class, so tokens
  // repeat; thousands of distinct words then make the index grow.
  const std::string alphabet =
      std::string("aAbBzZ09'' .,-\x80\xc3\xe9\xff") + std::string(1, '\0');
  Rng rng(31);
  std::vector<std::string> texts;
  for (int doc = 0; doc < 400; ++doc) {
    std::string text;
    size_t length = rng.UniformU32(200);
    for (size_t i = 0; i < length; ++i) {
      text += alphabet[rng.UniformU32(static_cast<uint32_t>(alphabet.size()))];
    }
    texts.push_back(text);
  }
  for (int word = 0; word < 3000; ++word) {
    texts.push_back("w" + std::to_string(word) + " W" +
                    std::to_string(word / 2));
  }
  ExpectSameIds(texts);
}

TEST(DenseIdIndexTest, AssignsIdsInFirstSeenOrderAcrossGrowth) {
  DenseIdIndex index;
  auto always = [](uint32_t) { return true; };
  for (uint64_t key = 0; key < 5000; ++key) {
    auto [id, added] = index.FindOrAdd(key * 7, always);
    EXPECT_TRUE(added);
    EXPECT_EQ(id, key);
  }
  for (uint64_t key = 0; key < 5000; ++key) {
    auto [id, added] = index.FindOrAdd(key * 7, always);
    EXPECT_FALSE(added);
    EXPECT_EQ(id, key);
  }
  EXPECT_EQ(index.size(), 5000u);
}

TEST(DenseIdIndexTest, EqualityBreaksHashCollisions) {
  // Every key shares one hash; the equality callback tells them apart.
  std::vector<int> keys;
  DenseIdIndex index;
  for (int key : {5, 9, 5, 2, 9}) {
    auto [id, added] = index.FindOrAdd(
        1, [&](uint32_t candidate) { return keys[candidate] == key; });
    if (added) keys.push_back(key);
    EXPECT_EQ(keys[id], key);
  }
  EXPECT_EQ(index.size(), 3u);
}

TEST(LightStemTest, StripsCommonSuffixes) {
  EXPECT_EQ(LightStem("batteries"), "battery");
  EXPECT_EQ(LightStem("chargers"), "charger");
  EXPECT_EQ(LightStem("charging"), "charg");
  EXPECT_EQ(LightStem("worked"), "work");
  EXPECT_EQ(LightStem("boxes"), "boxe");  // Conservative: only drops 's'-ish.
}

TEST(LightStemTest, LeavesShortAndSafeWordsAlone) {
  EXPECT_EQ(LightStem("is"), "is");
  EXPECT_EQ(LightStem("was"), "was");
  EXPECT_EQ(LightStem("less"), "less");  // Double-s protected.
  EXPECT_EQ(LightStem("bed"), "bed");
}

TEST(TokenizerTest, StemmingAppliedWhenEnabled) {
  TokenizerOptions options;
  options.light_stem = true;
  std::vector<std::string> tokens = Tokenize("the batteries worked", options);
  EXPECT_EQ(tokens, (std::vector<std::string>{"the", "battery", "work"}));
}

TEST(SplitSentencesTest, SplitsOnTerminators) {
  EXPECT_EQ(
      SplitSentences("First one. Second!  Third? done"),
      (std::vector<std::string>{"First one", "Second", "Third", "done"}));
}

TEST(SplitSentencesTest, EmptySentencesDropped) {
  EXPECT_EQ(SplitSentences("Hi.. . !"), (std::vector<std::string>{"Hi"}));
  EXPECT_TRUE(SplitSentences("").empty());
}

TEST(StopwordsTest, CommonWordsAreStopwords) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_TRUE(IsStopword("dont"));
  EXPECT_TRUE(IsStopword("myself"));
}

TEST(StopwordsTest, ContentWordsAreNot) {
  EXPECT_FALSE(IsStopword("battery"));
  EXPECT_FALSE(IsStopword("great"));
  EXPECT_FALSE(IsStopword("puzzle"));
}

TEST(StopwordsTest, SetIsNonTrivial) {
  EXPECT_GT(EnglishStopwords().size(), 100u);
}

}  // namespace
}  // namespace comparesets
