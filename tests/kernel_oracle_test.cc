// Bit-identity oracle for the shape-specialized matrix kernels
// (matrix/kernels.h): every dispatcher must produce exactly the bits of the
// run-time-extent reference loop, compared with memcmp on the raw doubles,
// so −0.0 vs +0.0 counts. Inputs mix ordinary values with exact zeros of
// both signs, subnormals, huge values, ±Inf and NaN. Output buffers start
// poisoned with a NaN payload no arithmetic produces, so an element a
// kernel forgets to write fails too.
//
// The one thing not compared is which NaN a NaN result carries. When both
// operands of an addition or multiplication are NaN, IEEE 754 leaves open
// which one propagates (x86 returns the first), and compilers commute the
// operands of + and × freely, so the sign and payload of such a NaN are not
// part of either loop's contract: recompiling the reference loop alone can
// change them. A NaN must still meet a NaN, never a number.
#include "matrix/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace roboads::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A signalling-NaN bit pattern: arithmetic only ever yields quiet NaNs.
const double kPoison = std::bit_cast<double>(std::uint64_t{0x7ff4deadbeef1234});

std::vector<double> poisoned(std::size_t n) {
  return std::vector<double>(n, kPoison);
}

bool is_poison(double x) { return std::memcmp(&x, &kPoison, sizeof x) == 0; }

::testing::AssertionResult same_bits(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (is_poison(a[i]) || is_poison(b[i])) {
      return ::testing::AssertionFailure() << "element " << i << " unwritten";
    }
    const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
    if (!both_nan && std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_bits(double a, double b) {
  return same_bits(std::vector<double>{a}, std::vector<double>{b});
}

// Draws from a mix of ordinary values and IEEE edge cases. `special_odds`
// is the chance (out of 100) of an edge case; a third of all draws are
// exact zeros of either sign so the product's zero-skip is exercised.
class Values {
 public:
  explicit Values(std::uint64_t seed) : rng_(seed) {}

  double ordinary() { return normal_(rng_); }

  double mixed(int special_odds) {
    const int roll = static_cast<int>(rng_() % 100);
    if (roll < 17) return 0.0;
    if (roll < 33) return -0.0;
    if (roll < 33 + special_odds) {
      static const double kSpecials[] = {
          std::numeric_limits<double>::denorm_min(),
          -3.0 * std::numeric_limits<double>::denorm_min(),
          1e-310,
          1e300,
          -1e300,
          kInf,
          -kInf,
          std::numeric_limits<double>::quiet_NaN(),
      };
      return kSpecials[rng_() % (sizeof kSpecials / sizeof kSpecials[0])];
    }
    return ordinary();
  }

  std::vector<double> fill(std::size_t n, int special_odds) {
    std::vector<double> v(n);
    for (double& x : v) x = mixed(special_odds);
    return v;
  }

 private:
  std::mt19937_64 rng_;
  std::normal_distribution<double> normal_{0.0, 1.0};
};

// Extents 1..kMaxFixedExtent hit the instantiations; 0 and one past the
// table check the fallback routes to the same loop.
std::vector<std::size_t> inner_extents() {
  std::vector<std::size_t> e;
  for (std::size_t k = 0; k <= kMaxFixedExtent + 1; ++k) e.push_back(k);
  return e;
}

constexpr int kTrials = 40;

TEST(KernelOracle, ProductMatchesReferenceLoop) {
  Values values(1);
  for (std::size_t k : inner_extents()) {
    for (std::size_t p : inner_extents()) {
      for (std::size_t m = 0; m <= 5; ++m) {
        for (int trial = 0; trial < kTrials; ++trial) {
          const int odds = trial % 2 == 0 ? 0 : 15;
          const std::vector<double> a = values.fill(m * k, odds);
          const std::vector<double> b = values.fill(k * p, odds);
          std::vector<double> got = poisoned(m * p);
          std::vector<double> want = poisoned(m * p);
          product(a.data(), b.data(), got.data(), m, k, p);
          product_generic(a.data(), b.data(), want.data(), m, k, p);
          ASSERT_TRUE(same_bits(got, want))
              << "m=" << m << " k=" << k << " p=" << p << " trial=" << trial;
        }
      }
    }
  }
}

// a(0, 0) = 0 against b(0, ·) = ±Inf: the skipped term must not turn the
// sum into NaN on either path.
TEST(KernelOracle, ZeroSkipKeepsZeroTimesInfOutOfTheSum) {
  for (std::size_t k = 1; k <= kMaxFixedExtent; ++k) {
    for (std::size_t p = 1; p <= kMaxFixedExtent; ++p) {
      std::vector<double> a(k, 1.0);
      a[0] = -0.0;
      std::vector<double> b(k * p, 2.0);
      for (std::size_t j = 0; j < p; ++j) b[j] = j % 2 == 0 ? kInf : -kInf;
      std::vector<double> got = poisoned(p);
      std::vector<double> want = poisoned(p);
      product(a.data(), b.data(), got.data(), 1, k, p);
      product_generic(a.data(), b.data(), want.data(), 1, k, p);
      ASSERT_TRUE(same_bits(got, want)) << "k=" << k << " p=" << p;
      for (double x : got) {
        EXPECT_EQ(x, 2.0 * static_cast<double>(k - 1)) << "k=" << k;
        EXPECT_FALSE(std::signbit(x));  // +0.0 start, even for k = 1
      }
    }
  }
}

TEST(KernelOracle, SandwichMatchesReferenceLoop) {
  Values values(2);
  for (std::size_t k : inner_extents()) {
    for (std::size_t m = 0; m <= 5; ++m) {
      for (int trial = 0; trial < kTrials; ++trial) {
        const int odds = trial % 2 == 0 ? 0 : 15;
        const std::vector<double> a = values.fill(m * k, odds);
        std::vector<double> s = values.fill(k * k, odds);
        for (std::size_t i = 0; i < k; ++i)  // symmetric, as callers pass
          for (std::size_t j = 0; j < i; ++j) s[j * k + i] = s[i * k + j];
        std::vector<double> got_as = poisoned(m * k);
        std::vector<double> want_as = poisoned(m * k);
        std::vector<double> got = poisoned(m * m);
        std::vector<double> want = poisoned(m * m);
        sandwich(a.data(), s.data(), got_as.data(), got.data(), m, k);
        sandwich_generic(a.data(), s.data(), want_as.data(), want.data(), m,
                         k);
        ASSERT_TRUE(same_bits(got, want))
            << "m=" << m << " k=" << k << " trial=" << trial;
      }
    }
  }
}

TEST(KernelOracle, MatvecMatchesReferenceLoop) {
  Values values(3);
  for (std::size_t k : inner_extents()) {
    for (std::size_t m = 0; m <= 5; ++m) {
      for (int trial = 0; trial < kTrials; ++trial) {
        const int odds = trial % 2 == 0 ? 0 : 15;
        const std::vector<double> a = values.fill(m * k, odds);
        const std::vector<double> x = values.fill(k, odds);
        std::vector<double> got = poisoned(m);
        std::vector<double> want = poisoned(m);
        matvec(a.data(), x.data(), got.data(), m, k);
        matvec_generic(a.data(), x.data(), want.data(), m, k);
        ASSERT_TRUE(same_bits(got, want)) << "m=" << m << " k=" << k;
      }
    }
  }
}

TEST(KernelOracle, TransposeMatchesReferenceLoop) {
  Values values(4);
  for (std::size_t m = 0; m <= kMaxFixedExtent + 1; ++m) {
    for (std::size_t n = 0; n <= kMaxFixedExtent + 1; ++n) {
      const std::vector<double> a = values.fill(m * n, 15);
      std::vector<double> got = poisoned(m * n);
      std::vector<double> want = poisoned(m * n);
      transpose(a.data(), got.data(), m, n);
      transpose_generic(a.data(), want.data(), m, n);
      ASSERT_TRUE(same_bits(got, want)) << "m=" << m << " n=" << n;
    }
  }
}

// Symmetric test matrices of the three kinds the decompositions meet:
// SPD (B·Bᵀ + I/10), rank-deficient PSD (B·Bᵀ with B n×(n−1)), and
// indefinite (a random symmetric matrix), plus, with `special_odds`,
// edge-case entries.
std::vector<double> symmetric(Values& values, std::size_t n, int kind,
                              int special_odds) {
  std::vector<double> out(n * n, 0.0);
  if (kind == 2 || special_odds > 0) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        out[i * n + j] = out[j * n + i] =
            special_odds > 0 ? values.mixed(special_odds) : values.ordinary();
    return out;
  }
  const std::size_t r = kind == 0 ? n : n - 1;
  std::vector<double> b(n * r);
  for (double& x : b) x = values.ordinary();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < r; ++c) acc += b[i * r + c] * b[j * r + c];
      out[i * n + j] = acc + (kind == 0 && i == j ? 0.1 : 0.0);
    }
  }
  return out;
}

std::string kind_name(int kind, int special_odds) {
  if (special_odds > 0) return "edge-case entries";
  return kind == 0 ? "SPD" : kind == 1 ? "rank-deficient" : "indefinite";
}

TEST(KernelOracle, CholeskyFactorAndSolvesMatchReferenceLoop) {
  Values values(5);
  std::size_t factored = 0;
  std::size_t rejected = 0;
  for (std::size_t n = 1; n <= kMaxFixedExtent + 1; ++n) {
    for (int kind = 0; kind < 3; ++kind) {
      for (int trial = 0; trial < kTrials; ++trial) {
        const int odds = trial % 4 == 3 ? 20 : 0;
        SCOPED_TRACE("n=" + std::to_string(n) + " " + kind_name(kind, odds) +
                     " trial=" + std::to_string(trial));
        const std::vector<double> a = symmetric(values, n, kind, odds);
        std::vector<double> got_l = poisoned(n * n);
        std::vector<double> want_l = poisoned(n * n);
        const bool got_ok = cholesky(a.data(), got_l.data(), n);
        const bool want_ok = cholesky_generic(a.data(), want_l.data(), n);
        ASSERT_EQ(got_ok, want_ok);
        ASSERT_TRUE(same_bits(got_l, want_l));
        if (!got_ok) {
          ++rejected;
          continue;
        }
        ++factored;
        const std::vector<double> rhs = values.fill(n, odds);
        std::vector<double> got_x = rhs;
        std::vector<double> want_x = rhs;
        cholesky_solve(got_l.data(), got_x.data(), n);
        cholesky_solve_generic(want_l.data(), want_x.data(), n);
        ASSERT_TRUE(same_bits(got_x, want_x));
        std::vector<double> got_y = rhs;
        std::vector<double> want_y = rhs;
        const double got_q = forward_norm2(got_l.data(), got_y.data(), n);
        const double want_q =
            forward_norm2_generic(want_l.data(), want_y.data(), n);
        ASSERT_TRUE(same_bits(got_q, want_q));
        ASSERT_TRUE(same_bits(got_y, want_y));
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(factored, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(KernelOracle, JacobiSweepMatchesReferenceLoop) {
  Values values(6);
  for (std::size_t n = 1; n <= kMaxFixedExtent + 1; ++n) {
    for (int kind = 0; kind < 3; ++kind) {
      for (int trial = 0; trial < kTrials; ++trial) {
        const int odds = trial % 8 == 7 ? 20 : 0;
        SCOPED_TRACE("n=" + std::to_string(n) + " " + kind_name(kind, odds) +
                     " trial=" + std::to_string(trial));
        std::vector<double> got_a = symmetric(values, n, kind, odds);
        std::vector<double> want_a = got_a;
        std::vector<double> got_v = poisoned(n * n);
        std::vector<double> want_v = poisoned(n * n);
        jacobi_eigen(got_a.data(), got_v.data(), n, 1e-13);
        jacobi_eigen_generic(want_a.data(), want_v.data(), n, 1e-13);
        ASSERT_TRUE(same_bits(got_a, want_a));  // diagonal = eigenvalues
        ASSERT_TRUE(same_bits(got_v, want_v));  // columns = eigenvectors
      }
    }
  }
}

}  // namespace
}  // namespace roboads::kernels
