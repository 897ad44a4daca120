#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "text/keyword_set.h"
#include "text/term_vector.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace soi {
namespace {

// --- Vocabulary ---------------------------------------------------------------

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary vocabulary;
  KeywordId a = vocabulary.Intern("shop");
  KeywordId b = vocabulary.Intern("food");
  EXPECT_NE(a, b);
  EXPECT_EQ(vocabulary.Intern("shop"), a);
  EXPECT_EQ(vocabulary.size(), 2);
}

TEST(VocabularyTest, FindWithoutIntern) {
  Vocabulary vocabulary;
  vocabulary.Intern("shop");
  EXPECT_NE(vocabulary.Find("shop"), kInvalidKeyword);
  EXPECT_EQ(vocabulary.Find("museum"), kInvalidKeyword);
}

TEST(VocabularyTest, NameRoundTrip) {
  Vocabulary vocabulary;
  KeywordId id = vocabulary.Intern("religion");
  EXPECT_EQ(vocabulary.Name(id), "religion");
}

TEST(VocabularyTest, IdsAreDense) {
  Vocabulary vocabulary;
  for (int i = 0; i < 100; ++i) {
    // operator+= instead of `"w" + std::to_string(i)`: GCC 12's inliner
    // trips a false-positive -Werror=restrict (GCC PR105651) on the
    // operator+(const char*, string&&) overload at -O3.
    std::string word = "w";
    word += std::to_string(i);
    EXPECT_EQ(vocabulary.Intern(word), i);
  }
}

// --- KeywordSet ---------------------------------------------------------------

TEST(KeywordSetTest, SortsAndDedupes) {
  KeywordSet set({5, 1, 3, 1, 5});
  EXPECT_EQ(set.size(), 3);
  EXPECT_EQ(set.ids(), (std::vector<KeywordId>{1, 3, 5}));
}

TEST(KeywordSetTest, Contains) {
  KeywordSet set({2, 4, 6});
  EXPECT_TRUE(set.Contains(4));
  EXPECT_FALSE(set.Contains(3));
  EXPECT_FALSE(KeywordSet().Contains(0));
}

TEST(KeywordSetTest, IntersectsAny) {
  KeywordSet a({1, 3, 5});
  KeywordSet b({2, 5, 9});
  KeywordSet c({0, 2, 4});
  EXPECT_TRUE(a.IntersectsAny(b));
  EXPECT_FALSE(a.IntersectsAny(c));
  EXPECT_FALSE(a.IntersectsAny(KeywordSet()));
}

TEST(KeywordSetTest, IntersectionAndUnionSizes) {
  KeywordSet a({1, 2, 3, 4});
  KeywordSet b({3, 4, 5});
  EXPECT_EQ(a.IntersectionSize(b), 2);
  EXPECT_EQ(a.JaccardDistance(b), 1.0 - 2.0 / 5.0);  // |A v B| = 5.
  EXPECT_EQ(a.IntersectionSize(KeywordSet()), 0);
  EXPECT_EQ(a.JaccardDistance(KeywordSet()), 1.0);
}

TEST(KeywordSetTest, JaccardDistance) {
  KeywordSet a({1, 2});
  KeywordSet b({2, 3});
  EXPECT_DOUBLE_EQ(a.JaccardDistance(b), 1.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.JaccardDistance(a), 0.0);
  EXPECT_DOUBLE_EQ(KeywordSet().JaccardDistance(KeywordSet()), 0.0);
  EXPECT_DOUBLE_EQ(a.JaccardDistance(KeywordSet()), 1.0);
}

// Property sweep: merge-based set ops agree with a naive implementation.
class KeywordSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeywordSetPropertyTest, MatchesNaive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<KeywordId> av;
    std::vector<KeywordId> bv;
    int64_t na = rng.UniformInt(0, 12);
    int64_t nb = rng.UniformInt(0, 12);
    for (int64_t i = 0; i < na; ++i) {
      av.push_back(static_cast<KeywordId>(rng.UniformInt(0, 15)));
    }
    for (int64_t i = 0; i < nb; ++i) {
      bv.push_back(static_cast<KeywordId>(rng.UniformInt(0, 15)));
    }
    KeywordSet a(av);
    KeywordSet b(bv);
    int64_t naive_inter = 0;
    for (KeywordId id : a.ids()) {
      if (b.Contains(id)) ++naive_inter;
    }
    EXPECT_EQ(a.IntersectionSize(b), naive_inter);
    int64_t naive_union = a.size() + b.size() - naive_inter;
    EXPECT_EQ(a.JaccardDistance(b),
              naive_union == 0 ? 0.0
                               : 1.0 - static_cast<double>(naive_inter) /
                                           static_cast<double>(naive_union));
    EXPECT_EQ(a.IntersectsAny(b), naive_inter > 0);
    // Symmetry.
    EXPECT_EQ(a.IntersectionSize(b), b.IntersectionSize(a));
    EXPECT_DOUBLE_EQ(a.JaccardDistance(b), b.JaccardDistance(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeywordSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- TermVector ---------------------------------------------------------------

TEST(TermVectorTest, AddAndGet) {
  TermVector terms;
  terms.Add(3, 2.0);
  terms.Add(3, 1.0);
  terms.Add(7);
  EXPECT_DOUBLE_EQ(terms.Get(3), 3.0);
  EXPECT_DOUBLE_EQ(terms.Get(7), 1.0);
  EXPECT_DOUBLE_EQ(terms.Get(99), 0.0);
  EXPECT_DOUBLE_EQ(terms.L1Norm(), 4.0);
  EXPECT_EQ(terms.NumTerms(), 2);
}

TEST(TermVectorTest, ZeroWeightIsIgnored) {
  TermVector terms;
  terms.Add(1, 0.0);
  EXPECT_EQ(terms.NumTerms(), 0);
  EXPECT_DOUBLE_EQ(terms.L1Norm(), 0.0);
}

TEST(TermVectorTest, AddAllAndWeightOf) {
  TermVector terms;
  terms.AddAll(KeywordSet({1, 2}));
  terms.AddAll(KeywordSet({2, 3}));
  EXPECT_DOUBLE_EQ(terms.Get(2), 2.0);
  EXPECT_DOUBLE_EQ(terms.WeightOf(KeywordSet({1, 2})), 3.0);
  EXPECT_DOUBLE_EQ(terms.WeightOf(KeywordSet({5})), 0.0);
  EXPECT_DOUBLE_EQ(terms.L1Norm(), 4.0);
}

// --- Tokenizer ---------------------------------------------------------------

TEST(TokenizerTest, SplitsOnNonAlnumAndLowercases) {
  std::vector<std::string> tokens = Tokenize("Oxford Str., LONDON-2016!");
  EXPECT_EQ(tokens, (std::vector<std::string>{"oxford", "str", "london",
                                              "2016"}));
}

TEST(TokenizerTest, EmptyText) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize(" ,;- ").empty());
}

TEST(TokenizerTest, TokenizeToKeywordsInterns) {
  Vocabulary vocabulary;
  KeywordSet set = TokenizeToKeywords("shop Shop SHOPPING", &vocabulary);
  EXPECT_EQ(set.size(), 2);  // "shop" deduped, "shopping" distinct.
  EXPECT_TRUE(set.Contains(vocabulary.Find("shop")));
  EXPECT_TRUE(set.Contains(vocabulary.Find("shopping")));
}

TEST(TokenizerTest, LookupKeywordsDropsUnknown) {
  Vocabulary vocabulary;
  vocabulary.Intern("food");
  KeywordSet set = LookupKeywords("food museum", vocabulary);
  EXPECT_EQ(set.size(), 1);
  EXPECT_EQ(vocabulary.size(), 1);  // Lookup must not intern.
}

}  // namespace
}  // namespace soi
