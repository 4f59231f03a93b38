// Unit tests for base: Status/Result, hashing/interning, Rng.
#include <gtest/gtest.h>

#include <set>

#include "base/hash.h"
#include "base/parallel.h"
#include "base/refine.h"
#include "base/rng.h"
#include "base/status.h"

namespace gelc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kIOError,
        StatusCode::kArithmeticOverflow}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  GELC_ASSIGN_OR_RETURN(int h, Half(x));
  GELC_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(HashTest, Fnv1aIsStable) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("\0", 1));
}

TEST(HashTest, CombineOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

uint64_t InternWords(WordInterner* in, const std::vector<uint64_t>& words) {
  return in->Intern(words.data(), words.size(),
                    HashWords(words.data(), words.size()));
}

TEST(InternerTest, AssignsDenseIdsFirstSeenOrder) {
  WordInterner in;
  EXPECT_EQ(InternWords(&in, {'x'}), 0u);
  EXPECT_EQ(InternWords(&in, {'y'}), 1u);
  EXPECT_EQ(InternWords(&in, {'x'}), 0u);
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, WordsDistinguishOrderAndContent) {
  WordInterner in;
  uint64_t a = InternWords(&in, {1, 2, 3});
  uint64_t b = InternWords(&in, {3, 2, 1});
  uint64_t c = InternWords(&in, {1, 2, 3});
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
}

TEST(InternerTest, LengthIsPartOfTheSignature) {
  WordInterner in;
  const uint64_t empty = InternWords(&in, {});
  EXPECT_NE(InternWords(&in, {0}), empty);
  EXPECT_NE(InternWords(&in, {0, 0}), InternWords(&in, {0}));
  EXPECT_EQ(InternWords(&in, {}), empty);
  EXPECT_EQ(in.size(), 3u);
}

TEST(InternerTest, SurvivesGrowthWithExactLookups) {
  WordInterner in;
  for (uint64_t i = 0; i < 5000; ++i) ASSERT_EQ(InternWords(&in, {i, i * i}), i);
  for (uint64_t i = 0; i < 5000; ++i) ASSERT_EQ(InternWords(&in, {i, i * i}), i);
  EXPECT_EQ(in.size(), 5000u);
}

// Signatures of item i: {i % 7, i % 3}; the driver must assign the same
// ids, and count the same colors, at every thread count.
TEST(RefinementRoundsTest, IdsAndCountsIndependentOfThreadCount) {
  std::vector<RefinementRounds::Coloring> runs;
  for (size_t threads : {1, 4}) {
    SetParallelThreadCount(threads);
    RefinementRounds driver;
    runs.push_back(driver.Color(
        {100000, 10}, [](size_t p, size_t i, std::vector<uint64_t>* words) {
          words->push_back((i + p) % 7);
          words->push_back(i % 3);
        }));
    EXPECT_EQ(driver.distinct(), 21u);
    EXPECT_TRUE(driver.Continue(1, -1));
    driver.Color({5}, [](size_t, size_t i, std::vector<uint64_t>* words) {
      words->push_back(i);
    });
    EXPECT_EQ(driver.distinct(), 5u);
    EXPECT_TRUE(driver.Continue(2, -1));
    EXPECT_FALSE(driver.Continue(2, 1));  // the round budget is spent
    driver.Color({5}, [](size_t, size_t i, std::vector<uint64_t>* words) {
      words->push_back(i + 1);
    });
    EXPECT_FALSE(driver.Continue(3, -1));  // same count: stable
  }
  SetParallelThreadCount(0);
  EXPECT_EQ(runs[0], runs[1]);
  // First-seen order: item 0 of part 0 gets id 0, item 1 gets id 1.
  EXPECT_EQ(runs[0][0][0], 0u);
  EXPECT_EQ(runs[0][0][1], 1u);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, BoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.NextBounded(13);
    EXPECT_LT(x, 13u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(42);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextGaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(5);
  std::vector<size_t> p = rng.Permutation(50);
  std::set<size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, ForkIndependent) {
  Rng a(9);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

}  // namespace
}  // namespace gelc
