// Kernel templates behind matrix/kernels.h, and every other operation of
// the NUISE step, written once for compile-time and run-time extents.
//
// Private to the library: kernels.cc builds its reference loops and
// dispatchers from these templates, matrix.cc and decomp.cc build the
// Matrix API on them, and core/nuise.cc calls them on the compile-time
// shapes of its compiled step (docs/PERFORMANCE.md "Compiled NUISE step").
// Each operation has exactly one loop body, so the Matrix API and the
// compiled step perform the same floating-point operations in the same
// order and agree bit for bit (the argument of matrix/kernels.h).
//
// An extent is either `Extent<N>` (known at compile time) or a plain
// std::size_t. The `ext::` entry points take either: a compile-time extent
// runs the template inline, a run-time one calls the dispatcher of
// kernels.h, which picks an instantiation by shape as before.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>
#include <vector>

#include "matrix/kernels.h"

// Internal linkage: every including .cc gets its own instantiations,
// which the compiler inlines like local functions. With external linkage
// GCC keeps product_fixed and sandwich_fixed out of line in the
// dispatchers.
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

namespace ext {

// ----------------------------------------------- kernels, either extent --
// A compile-time inner extent runs the template above inline; a run-time
// one calls the kernels.h dispatcher. Row counts are run-time throughout.

template <typename K, typename P>
void product(const double* a, const double* b, double* out, std::size_t m,
             K k, P p) {
  if constexpr (kFixed<K> && kFixed<P>) {
    product_fixed<K::value, P::value>(a, b, out, m);
  } else {
    kernels::product(a, b, out, m, k, p);
  }
}

template <typename K>
void sandwich(const double* a, const double* s, double* as, double* out,
              std::size_t m, K k) {
  if constexpr (kFixed<K>) {
    sandwich_fixed<K::value>(a, s, as, out, m);
  } else {
    kernels::sandwich(a, s, as, out, m, k);
  }
}

template <typename K>
void matvec(const double* a, const double* x, double* out, std::size_t m,
            K k) {
  if constexpr (kFixed<K>) {
    matvec_impl(a, x, out, m, k);
  } else {
    kernels::matvec(a, x, out, m, k);
  }
}

template <typename M, typename N>
void transpose(const double* a, double* t, M m, N n) {
  if constexpr (kFixed<M> && kFixed<N>) {
    transpose_impl(a, t, m, n);
  } else {
    kernels::transpose(a, t, m, n);
  }
}

template <typename N>
bool cholesky(const double* a, double* l, N n) {
  if constexpr (kFixed<N>) {
    return cholesky_impl(a, l, n);
  } else {
    return kernels::cholesky(a, l, n);
  }
}

template <typename N>
void cholesky_solve(const double* l, double* b, N n) {
  if constexpr (kFixed<N>) {
    cholesky_solve_impl(l, b, n);
  } else {
    kernels::cholesky_solve(l, b, n);
  }
}

template <typename N>
void jacobi_eigen(double* a, double* v, N n, double tol) {
  if constexpr (kFixed<N>) {
    jacobi_impl(a, v, n, tol);
  } else {
    kernels::jacobi_eigen(a, v, n, tol);
  }
}

// ------------------------------------------------ elementwise operations --

// a += b over rows×cols elements (Matrix/Vector operator+=).
template <typename R, typename C>
void add(double* a, const double* b, R rows, C cols) {
  for (std::size_t i = 0; i < rows * cols; ++i) a[i] += b[i];
}

// a *= s over rows×cols elements (Matrix operator*=; negation is s = −1.0,
// which keeps a NaN's sign where a sign flip would not).
template <typename R, typename C>
void scale(double* a, double s, R rows, C cols) {
  for (std::size_t i = 0; i < rows * cols; ++i) a[i] *= s;
}

// (A + Aᵀ)/2 in place (Matrix::symmetrize).
template <typename N>
void symmetrize(double* a, N n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double m = 0.5 * (a[i * n + j] + a[j * n + i]);
      a[i * n + j] = m;
      a[j * n + i] = m;
    }
  }
}

// c += alpha·(y + yᵀ), each mirrored pair from one sum (add_self_adjoint).
template <typename N>
void add_self_adjoint(double* c, const double* y, N n, double alpha) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double s = alpha * (y[i * n + j] + y[j * n + i]);
      c[i * n + j] += s;
      if (j != i) c[j * n + i] += s;
    }
  }
}

// m ← I − m, each element as Matrix::identity(n) − m computes it
// (1.0 − mᵢᵢ, 0.0 − mᵢⱼ: signed zeros included).
template <typename N>
void identity_minus(double* m, N n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m[i * n + j] = (i == j ? 1.0 : 0.0) - m[i * n + j];
    }
  }
}

// ------------------------------------------------------------ SpdFactor --

// SpdFactor's trust test of a completed factor l of `a`: false when the
// smallest pivot is negligible against the matrix scale, which an exactly
// singular matrix passes with a rounding-noise pivot.
template <typename N>
bool cholesky_trusted(const double* a, const double* l, N n, double rel_tol) {
  double scale = 0.0;
  double min_pivot = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < n; ++j) {
    scale = std::max(scale, std::abs(a[j * n + j]));
    min_pivot = std::min(min_pivot, l[j * n + j] * l[j * n + j]);
  }
  return !(min_pivot <= rel_tol * scale);
}

// ------------------------------------------------------- SpdEigenFactor --

// Index scratch for the eigenpair sort: on the stack for a compile-time
// extent, inline up to 32 entries (heap above) for a run-time one, so the
// detector path stays allocation-free.
template <typename N, bool = kFixed<N>>
struct IndexScratch {
  std::size_t buf[N::value];
  std::size_t* get(N) { return buf; }
};
template <typename N>
struct IndexScratch<N, false> {
  std::size_t inline_buf[32];
  std::vector<std::size_t> heap;
  std::size_t* get(std::size_t n) {
    if (n <= 32) return inline_buf;
    heap.resize(n);
    return heap.data();
  }
};

// Eigenpairs of the symmetric `a` (overwritten by the Jacobi sweeps, whose
// rotations go to the scratch `v`), sorted descending by eigenvalue into
// w (n) and the columns of vecs (n×n): eigen_symmetric after its
// symmetrization.
template <typename N>
void eigen_symmetric(double* a, double* v, double* w, double* vecs, N n,
                     double tol) {
  jacobi_eigen(a, v, n, tol);
  IndexScratch<N> scratch;
  std::size_t* order = scratch.get(n);
  std::iota(order, order + n, std::size_t{0});
  std::sort(order, order + n, [&](std::size_t i, std::size_t j) {
    return a[i * n + i] > a[j * n + j];
  });
  for (std::size_t j = 0; j < n; ++j) {
    w[j] = a[order[j] * n + order[j]];
    for (std::size_t i = 0; i < n; ++i) vecs[i * n + j] = v[i * n + order[j]];
  }
}

// SpdEigenFactor's factorization of `s`, which holds a copy of the matrix
// and is overwritten: the factor's symmetrization, eigen_symmetric's own
// (a no-op on finite input, kept for the overflow and NaN cases), Jacobi
// at tol 1e-13 and the sort. Returns the rank cutoff: rel_tol·λmax, or
// rel_tol·n·λmax when `dim_scaled`, with λmax floored at 1e-300.
template <typename N>
double spd_eigen_factor(double* s, double* v, double* w, double* vecs, N n,
                        double rel_tol, bool dim_scaled) {
  symmetrize(s, n);
  symmetrize(s, n);
  eigen_symmetric(s, v, w, vecs, n, 1e-13);
  const double lam_max = n ? std::max(w[0], 0.0) : 0.0;
  const double scale =
      dim_scaled ? rel_tol * static_cast<double>(std::size_t{n}) : rel_tol;
  return scale * std::max(lam_max, 1e-300);
}

template <typename N>
std::size_t eigen_rank(const double* w, N n, double cutoff) {
  std::size_t rank = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (w[i] > cutoff) ++rank;
  return rank;
}

// out (n×n) = V diag(1/λ on the support) Vᵀ, exactly symmetric; `scaled`
// and `vt` are n×n scratch.
template <typename N>
void eigen_pseudo_inverse(const double* w, const double* vecs, double cutoff,
                          double* scaled, double* vt, double* out, N n) {
  std::copy(vecs, vecs + n * n, scaled);
  for (std::size_t j = 0; j < n; ++j) {
    const double lam = w[j];
    const double inv = lam > cutoff ? 1.0 / lam : 0.0;
    for (std::size_t i = 0; i < n; ++i) scaled[i * n + j] *= inv;
  }
  transpose(vecs, vt, n, n);
  product(scaled, vt, out, n, n, n);
  symmetrize(out, n);
}

// x = A⁺ b = Σ_{λᵢ > cutoff} vᵢ (vᵢ·b) / λᵢ.
template <typename N>
void eigen_solve(const double* w, const double* vecs, double cutoff,
                 const double* b, double* x, N n) {
  std::fill(x, x + n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double lam = w[j];
    if (lam <= cutoff) continue;
    double proj = 0.0;
    for (std::size_t i = 0; i < n; ++i) proj += vecs[i * n + j] * b[i];
    const double wj = proj / lam;
    for (std::size_t i = 0; i < n; ++i) x[i] += vecs[i * n + j] * wj;
  }
}

// bᵀ A⁺ b = Σ_{λᵢ > cutoff} (vᵢ·b)² / λᵢ.
template <typename N>
double eigen_quadratic_form(const double* w, const double* vecs,
                            double cutoff, const double* b, N n) {
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double lam = w[j];
    if (lam <= cutoff) continue;
    double proj = 0.0;
    for (std::size_t i = 0; i < n; ++i) proj += vecs[i * n + j] * b[i];
    acc += proj * proj / lam;
  }
  return acc;
}

// Σ_{λᵢ > cutoff} log λᵢ.
template <typename N>
double eigen_log_pseudo_determinant(const double* w, double cutoff, N n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    if (w[i] > cutoff) acc += std::log(w[i]);
  return acc;
}

}  // namespace ext
}  // namespace
}  // namespace roboads::kernels
