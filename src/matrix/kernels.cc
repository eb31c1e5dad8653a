#include "matrix/kernels.h"

#include <algorithm>

#include "matrix/kernels_impl.h"

namespace roboads::kernels {

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
