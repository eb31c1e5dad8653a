#include "matrix/kernels.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace roboads::kernels {
namespace {

// A loop extent known at compile time. It converts to std::size_t, so a
// loop body written against `n` compiles unchanged for a run-time
// std::size_t (the reference loop) and for Extent<N> (an instantiation).
template <std::size_t N>
using Extent = std::integral_constant<std::size_t, N>;

template <typename T>
inline constexpr bool kFixed = !std::is_same_v<T, std::size_t>;

// Calls fn(Extent<n>{}) for n in [1, kMaxFixedExtent] and fn(n) otherwise.
template <typename Fn>
decltype(auto) with_extent(std::size_t n, Fn&& fn) {
  static_assert(kMaxFixedExtent == 4, "extend the switch with the table");
  switch (n) {
    case 1: return fn(Extent<1>{});
    case 2: return fn(Extent<2>{});
    case 3: return fn(Extent<3>{});
    case 4: return fn(Extent<4>{});
    default: return fn(n);
  }
}

// ---------------------------------------------------------- products --

// The instantiated product: row i's outputs live in registers and are
// stored once; the accumulation order is the reference loop's.
template <std::size_t K, std::size_t P>
void product_fixed(const double* a, const double* b, double* out,
                   std::size_t m) {
  for (std::size_t i = 0; i < m; ++i, a += K, out += P) {
    double acc[P] = {};  // +0.0, as the reference loop's zero-fill
    for (std::size_t k = 0; k < K; ++k) {
      const double aik = a[k];
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < P; ++j) acc[j] += aik * b[k * P + j];
    }
    for (std::size_t j = 0; j < P; ++j) out[j] = acc[j];
  }
}

template <std::size_t K>
void sandwich_fixed(const double* a, const double* s, double* as, double* out,
                    std::size_t m) {
  product_fixed<K, K>(a, s, as, m);
  for (std::size_t i = 0; i < m; ++i) {
    const double* asi = as + i * K;
    for (std::size_t j = 0; j < i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) acc += asi[k] * a[j * K + k];
      out[i * m + j] = acc;
      out[j * m + i] = acc;
    }
    double acc = 0.0;
    for (std::size_t k = 0; k < K; ++k) acc += asi[k] * a[i * K + k];
    out[i * m + i] = acc;
  }
}

template <typename Ext>
void matvec_impl(const double* a, const double* x, double* out,
                 std::size_t m, Ext k) {
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < k; ++j) acc += a[i * k + j] * x[j];
    out[i] = acc;
  }
}

template <typename ExtM, typename ExtN>
void transpose_impl(const double* a, double* t, ExtM m, ExtN n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) t[j * m + i] = a[i * n + j];
  }
}

// ---------------------------------------------------------- Cholesky --

template <typename Ext>
bool cholesky_impl(const double* a, double* l, Ext n) {
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) l[i * n + j] = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= l[j * n + k] * l[j * n + k];
    if (diag <= 0.0 || !std::isfinite(diag)) {
      // Columns j.. of the lower triangle stay zero.
      for (std::size_t i = j; i < n; ++i)
        for (std::size_t k = j; k <= i; ++k) l[i * n + k] = 0.0;
      return false;
    }
    l[j * n + j] = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) acc -= l[i * n + k] * l[j * n + k];
      l[i * n + j] = acc / l[j * n + j];
    }
  }
  return true;
}

template <typename Ext>
void cholesky_solve_impl(const double* l, double* b, Ext n) {
  // Forward substitution L y = b, overwriting b with y.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l[i * n + j] * b[j];
    b[i] = acc / l[i * n + i];
  }
  // Backward substitution Lᵀ x = y, overwriting y with x.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l[j * n + ii] * b[j];
    b[ii] = acc / l[ii * n + ii];
  }
}

template <typename Ext>
double forward_norm2_impl(const double* l, double* b, Ext n) {
  double acc2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l[i * n + j] * b[j];
    b[i] = acc / l[i * n + i];
    acc2 += b[i] * b[i];
  }
  return acc2;
}

// ------------------------------------------------------------ Jacobi --

template <typename Ext>
void jacobi_impl(double* a, double* v, Ext n, double tol) {
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) v[i * n + j] = i == j ? 1.0 : 0.0;
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) {
    max_abs = std::max(max_abs, std::abs(a[i]));
  }
  const double scale = std::max(1.0, max_abs);
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off += a[p * n + q] * a[p * n + q];
      }
    }
    if (std::sqrt(off) <= tol * scale) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (std::abs(apq) <= tol * scale * 1e-3) continue;
        const double theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation A <- J^T A J on rows/cols p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k * n + p];
          const double akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p * n + k];
          const double aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v[k * n + p];
          const double vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }
}

}  // namespace

// ------------------------------------------------------ reference loops --

void product_generic(const double* a, const double* b, double* out,
                     std::size_t m, std::size_t k, std::size_t p) {
  std::fill(out, out + m * p, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i * k + kk];
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < p; ++j) {
        out[i * p + j] += aik * b[kk * p + j];
      }
    }
  }
}

void sandwich_generic(const double* a, const double* s, double* as,
                      double* out, std::size_t m, std::size_t k) {
  product_generic(a, s, as, m, k, k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += as[i * k + kk] * a[j * k + kk];
      }
      out[i * m + j] = acc;
      out[j * m + i] = acc;
    }
  }
}

void matvec_generic(const double* a, const double* x, double* out,
                    std::size_t m, std::size_t k) {
  matvec_impl(a, x, out, m, k);
}

void transpose_generic(const double* a, double* t, std::size_t m,
                       std::size_t n) {
  transpose_impl(a, t, m, n);
}

bool cholesky_generic(const double* a, double* l, std::size_t n) {
  return cholesky_impl(a, l, n);
}

void cholesky_solve_generic(const double* l, double* b, std::size_t n) {
  cholesky_solve_impl(l, b, n);
}

double forward_norm2_generic(const double* l, double* b, std::size_t n) {
  return forward_norm2_impl(l, b, n);
}

void jacobi_eigen_generic(double* a, double* v, std::size_t n, double tol) {
  jacobi_impl(a, v, n, tol);
}

// ---------------------------------------------------------- dispatchers --

void product(const double* a, const double* b, double* out, std::size_t m,
             std::size_t k, std::size_t p) {
  with_extent(k, [&](auto kk) {
    with_extent(p, [&](auto pp) {
      if constexpr (kFixed<decltype(kk)> && kFixed<decltype(pp)>) {
        product_fixed<decltype(kk)::value, decltype(pp)::value>(a, b, out, m);
      } else {
        product_generic(a, b, out, m, k, p);
      }
    });
  });
}

void sandwich(const double* a, const double* s, double* as, double* out,
              std::size_t m, std::size_t k) {
  with_extent(k, [&](auto kk) {
    if constexpr (kFixed<decltype(kk)>) {
      sandwich_fixed<decltype(kk)::value>(a, s, as, out, m);
    } else {
      sandwich_generic(a, s, as, out, m, k);
    }
  });
}

void matvec(const double* a, const double* x, double* out, std::size_t m,
            std::size_t k) {
  with_extent(k, [&](auto kk) { matvec_impl(a, x, out, m, kk); });
}

void transpose(const double* a, double* t, std::size_t m, std::size_t n) {
  with_extent(m, [&](auto mm) {
    with_extent(n, [&](auto nn) { transpose_impl(a, t, mm, nn); });
  });
}

bool cholesky(const double* a, double* l, std::size_t n) {
  return with_extent(n, [&](auto nn) { return cholesky_impl(a, l, nn); });
}

void cholesky_solve(const double* l, double* b, std::size_t n) {
  with_extent(n, [&](auto nn) { cholesky_solve_impl(l, b, nn); });
}

double forward_norm2(const double* l, double* b, std::size_t n) {
  return with_extent(n, [&](auto nn) { return forward_norm2_impl(l, b, nn); });
}

void jacobi_eigen(double* a, double* v, std::size_t n, double tol) {
  with_extent(n, [&](auto nn) { jacobi_impl(a, v, nn, tol); });
}

}  // namespace roboads::kernels
