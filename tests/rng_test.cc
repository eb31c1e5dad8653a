#include "random/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace roboads {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), CheckError);
}

TEST(Rng, IndexBounds) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.index(10), 10u);
  EXPECT_THROW(rng.index(0), CheckError);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, GaussianZeroStddevIsDeterministic) {
  Rng rng(13);
  EXPECT_EQ(rng.gaussian(3.5, 0.0), 3.5);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), CheckError);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng master(99);
  Rng a(master.split()), b(master.split());
  EXPECT_NE(a.uniform(), b.uniform());
}

// The oracle tests below tie the hand-written engine and draws to the
// standard library they replace: every golden trace and pinned outcome was
// recorded from std::mt19937_64 and libstdc++'s distributions.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The next draws of both engines agree: more than three twists' worth.
void expect_same_stream(Mt19937_64& engine, std::mt19937_64& oracle) {
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(engine(), oracle()) << "draw " << i;
}

TEST(Mt19937_64, MatchesTheStandardEngineForEverySeedKind) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{0x9e3779b97f4a7c15ULL},
        std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(seed);
    Mt19937_64 engine(seed);
    std::mt19937_64 oracle(seed);
    expect_same_stream(engine, oracle);
  }
}

TEST(Mt19937_64, SplitChildrenMatchTheStandardEngine) {
  Rng master(99);
  std::mt19937_64 master_oracle(99);
  for (int child = 0; child < 8; ++child) {
    const std::uint64_t seed = master.split();
    ASSERT_EQ(seed, master_oracle());
    Mt19937_64 engine(seed);
    std::mt19937_64 oracle(seed);
    expect_same_stream(engine, oracle);
  }
}

TEST(Mt19937_64, EqualityFollowsTheStream) {
  Mt19937_64 a(7), b(7);
  EXPECT_TRUE(a == b);
  a();
  EXPECT_FALSE(a == b);
  b();
  EXPECT_TRUE(a == b);
}

constexpr int kOracleDraws = 1000000;

// Each draw of an Rng equals the named std distribution on a same-seeded
// std::mt19937_64, bit for bit, and leaves both engines in step.
template <typename Draw, typename Oracle>
void expect_draws_match(std::uint64_t seed, Draw draw, Oracle oracle_draw) {
  Rng rng(seed);
  std::mt19937_64 oracle(seed);
  for (int i = 0; i < kOracleDraws; ++i) {
    const double actual = draw(rng, i);
    const double expected = oracle_draw(oracle, i);
    ASSERT_EQ(bits(actual), bits(expected)) << "draw " << i;
  }
  expect_same_stream(rng.engine(), oracle);
}

TEST(RngOracle, UniformIsUnitUniformRealDistribution) {
  expect_draws_match(
      1, [](Rng& rng, int) { return rng.uniform(); },
      [](std::mt19937_64& e, int) {
        return std::uniform_real_distribution<double>(0.0, 1.0)(e);
      });
}

TEST(RngOracle, UniformRangeIsUniformRealDistribution) {
  const double ranges[][2] = {{0.0, 2.0}, {0.0, 1.5}, {-M_PI, M_PI},
                              {-2.0, 5.0}, {1e-3, 1e3}, {3.0, 3.0}};
  expect_draws_match(
      2, [&](Rng& rng, int i) {
        const auto& r = ranges[i % 6];
        return rng.uniform(r[0], r[1]);
      },
      [&](std::mt19937_64& e, int i) {
        const auto& r = ranges[i % 6];
        return std::uniform_real_distribution<double>(r[0], r[1])(e);
      });
}

TEST(RngOracle, GaussianIsAFreshNormalDistribution) {
  expect_draws_match(
      3, [](Rng& rng, int) { return rng.gaussian(); },
      [](std::mt19937_64& e, int) {
        return std::normal_distribution<double>(0.0, 1.0)(e);
      });
}

TEST(RngOracle, ScaledGaussianIsAFreshNormalDistribution) {
  const double params[][2] = {{0.0, 0.01}, {1.5, 2.0}, {-3.0, 1e-6},
                              {0.0, 1.0}, {1e3, 0.5}};
  expect_draws_match(
      4, [&](Rng& rng, int i) {
        const auto& p = params[i % 5];
        return rng.gaussian(p[0], p[1]);
      },
      [&](std::mt19937_64& e, int i) {
        const auto& p = params[i % 5];
        return std::normal_distribution<double>(p[0], p[1])(e);
      });
}

TEST(RngOracle, IndexIsUniformIntDistribution) {
  const std::size_t sizes[] = {1, 2, 3, 10, 64, 1000, 1u << 20,
                               (std::size_t{1} << 63) + 12345,
                               std::numeric_limits<std::size_t>::max()};
  expect_draws_match(
      5, [&](Rng& rng, int i) {
        return static_cast<double>(rng.index(sizes[i % 9]));
      },
      [&](std::mt19937_64& e, int i) {
        return static_cast<double>(
            std::uniform_int_distribution<std::size_t>(0, sizes[i % 9] - 1)(
                e));
      });
}

TEST(RngOracle, GaussianVectorIsFreshNormalDistributions) {
  Rng rng(6);
  std::mt19937_64 oracle(6);
  for (int v = 0; v < kOracleDraws / 8; ++v) {
    const Vector x = rng.gaussian_vector(8);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(bits(x[i]),
                bits(std::normal_distribution<double>(0.0, 1.0)(oracle)));
    }
  }
  expect_same_stream(rng.engine(), oracle);
}

// A generator that returns one fixed value, to reach the raw values no
// seed is practically known to produce.
struct FixedBits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type value;
  result_type operator()() { return value; }
};

void expect_canonical_matches(std::uint64_t x) {
  FixedBits fixed{x};
  ASSERT_EQ(bits(canonical(x)),
            bits(std::generate_canonical<double, 53>(fixed)))
      << std::hex << x;
}

TEST(RngOracle, CanonicalClampsValuesThatRoundUpToOne) {
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  const double below_one = std::nextafter(1.0, 0.0);
  // 2^64 - 2^10 is the first value whose conversion rounds (to even) up to
  // 2^64, so it and everything above it is clamped to nextafter(1, 0).
  for (std::uint64_t x = top - 1023; x != 0; ++x) {
    ASSERT_EQ(static_cast<double>(x), 0x1p64) << std::hex << x;
    expect_canonical_matches(x);
    ASSERT_EQ(canonical(x), below_one) << std::hex << x;
  }
  // One below, the conversion rounds down to 2^64 - 2^11, whose scaled
  // value is nextafter(1, 0) itself, unclamped.
  EXPECT_EQ(static_cast<double>(top - 1024), 0x1p64 - 0x1p11);
  expect_canonical_matches(top - 1024);
  EXPECT_EQ(canonical(top - 1024), below_one);
}

TEST(RngOracle, CanonicalConvertsEveryBitPatternAsTheLibrary) {
  // Top-bit-set values take libstdc++'s halve-and-double conversion branch;
  // the halves must round the same, ties to even included.
  std::vector<std::uint64_t> values = {0, 1, 2, (std::uint64_t{1} << 53) - 1,
                                       std::uint64_t{1} << 53,
                                       (std::uint64_t{1} << 53) + 1,
                                       std::uint64_t{1} << 63};
  const std::uint64_t highs[] = {std::uint64_t{1} << 63,
                                 0x8000000000000800ULL, 0xfffffffffffff000ULL,
                                 0x7ffffffffffff800ULL, 0x0000000100000000ULL};
  for (const std::uint64_t high : highs) {
    for (std::uint64_t low = 0; low < 0x1000; ++low) values.push_back(high | low);
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < kOracleDraws; ++i) {
    const std::uint64_t x = rng();
    values.push_back(x);
    values.push_back(x | (std::uint64_t{1} << 63));
    values.push_back((x & ~std::uint64_t{0x7ff}) | 0x400);  // a tie
  }
  for (const std::uint64_t x : values) {
    expect_canonical_matches(x);
    if (x < ~std::uint64_t{0} - 1023) {
      ASSERT_EQ(bits(canonical(x)),
                bits(static_cast<double>(x) * 0x1p-64))
          << std::hex << x;
    }
  }
}

TEST(GaussianSampler, MatchesTargetCovariance) {
  Matrix cov{{2.0, 0.8}, {0.8, 1.0}};
  GaussianSampler sampler(cov);
  Rng rng(17);
  const int n = 40000;
  double s00 = 0.0, s01 = 0.0, s11 = 0.0;
  for (int i = 0; i < n; ++i) {
    const Vector x = sampler.sample(rng);
    s00 += x[0] * x[0];
    s01 += x[0] * x[1];
    s11 += x[1] * x[1];
  }
  EXPECT_NEAR(s00 / n, 2.0, 0.08);
  EXPECT_NEAR(s01 / n, 0.8, 0.05);
  EXPECT_NEAR(s11 / n, 1.0, 0.05);
}

TEST(GaussianSampler, SemiDefiniteCovarianceZeroChannels) {
  // One noise channel disabled: samples stay exactly on the support.
  Matrix cov = Matrix::diagonal(Vector{1.0, 0.0});
  GaussianSampler sampler(cov);
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const Vector x = sampler.sample(rng);
    EXPECT_EQ(x[1], 0.0);
  }
}

TEST(GaussianSampler, RejectsInvalidCovariance) {
  EXPECT_THROW(GaussianSampler(Matrix(2, 3)), CheckError);
  EXPECT_THROW(GaussianSampler(Matrix{{1.0, 2.0}, {0.0, 1.0}}), CheckError);
  // Indefinite covariance must be rejected.
  EXPECT_THROW(GaussianSampler(Matrix{{1.0, 2.0}, {2.0, 1.0}}), CheckError);
}

TEST(GaussianSampler, EmptyCovariance) {
  GaussianSampler sampler{Matrix()};
  Rng rng(3);
  EXPECT_TRUE(sampler.sample(rng).empty());
}

}  // namespace
}  // namespace roboads
