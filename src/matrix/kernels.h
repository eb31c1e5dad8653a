// Row-major kernels behind the Matrix products, `sandwich`, the matrix-vector
// product, `transpose`, the Cholesky factorization and its solves, and the
// cyclic-Jacobi sweep of `eigen_symmetric`.
//
// Every kernel comes in two forms:
//
//   * `<name>_generic` — the run-time-extent reference loop. It is the only
//     path for shapes outside the dispatch table, and
//     tests/kernel_oracle_test.cc compares the dispatcher against it bit for
//     bit.
//   * `<name>` — the dispatcher. When the extents its inner loops run over
//     are all at most kMaxFixedExtent it calls an instantiation whose loop
//     bounds are template parameters (the outer row count stays a run-time
//     argument; `transpose` fixes whichever of its extents is in range);
//     otherwise it calls the reference loop.
//
// Both forms are built from one loop body per kernel, a template in the
// private header matrix/kernels_impl.h; code whose shapes are known at
// compile time (the compiled NUISE step) runs those templates inline.
//
// Exactness: an instantiation performs the same floating-point operations as
// its reference loop, in the same order, so the two agree bit for bit on
// every input, ±0, subnormals, ±Inf and NaN included:
//   * product: every output element starts at +0.0 and adds a(i,k)·b(k,j)
//     for k ascending, skipping a(i,k) == 0 (so 0·Inf never reaches a sum);
//   * sandwich: A·S by the product above, then each lower-triangle element
//     of (A·S)·Aᵀ summed from +0.0 in k order and mirrored;
//   * matrix-vector: each row summed from +0.0 in column order, no skip;
//   * Cholesky and its solves: the same column order, running subtractions
//     and pivot test;
//   * Jacobi: the same off-norm test, the same (p, q) rotation sequence with
//     the same skip threshold, and the same update expressions.
// What differs is only what is not arithmetic: loop bounds the compiler
// knows (no vectorizer prologue or alias check), accumulators held in
// registers, and each output element written once instead of zero-filled
// and then read-modify-written. The argument assumes the project's flags:
// no -ffast-math, and no target with fused multiply-add (no -march/-mfma),
// so no multiply-add pair is contracted differently in the two forms.
// Where a result is NaN both forms give NaN; which NaN propagates when both
// operands of + or × are NaN is unspecified by IEEE 754 and left to the
// compiler's operand order in either loop.
#pragma once

#include <cstddef>

namespace roboads::kernels {

// Largest inner extent with a compile-time instantiation. On the Khepera
// and Tamiya detector paths every product and sandwich inner extent is 2,
// 3 or 4 (docs/PERFORMANCE.md "Detector kernels").
inline constexpr std::size_t kMaxFixedExtent = 4;

// out (m×p) = a (m×k) · b (k×p). `out` must not overlap `a` or `b`; the
// dispatcher needs no initialized `out`, the reference loop zero-fills it.
void product(const double* a, const double* b, double* out, std::size_t m,
             std::size_t k, std::size_t p);
void product_generic(const double* a, const double* b, double* out,
                     std::size_t m, std::size_t k, std::size_t p);

// out (m×m) = a (m×k) · s (k×k) · aᵀ for symmetric s, exactly symmetric:
// the lower triangle is accumulated and mirrored. `as` is scratch for the
// m×k intermediate a·s; none of the buffers may overlap.
void sandwich(const double* a, const double* s, double* as, double* out,
              std::size_t m, std::size_t k);
void sandwich_generic(const double* a, const double* s, double* as,
                      double* out, std::size_t m, std::size_t k);

// out (m) = a (m×k) · x (k).
void matvec(const double* a, const double* x, double* out, std::size_t m,
            std::size_t k);
void matvec_generic(const double* a, const double* x, double* out,
                    std::size_t m, std::size_t k);

// t (n×m) = aᵀ for a (m×n).
void transpose(const double* a, double* t, std::size_t m, std::size_t n);
void transpose_generic(const double* a, double* t, std::size_t m,
                       std::size_t n);

// Cholesky a = l·lᵀ of the symmetric n×n `a` (only its lower triangle is
// read). Writes all of `l`: the factor's columns up to the first pivot that
// is not positive and finite, where the kernel stops and returns false,
// and zeros everywhere else.
bool cholesky(const double* a, double* l, std::size_t n);
bool cholesky_generic(const double* a, double* l, std::size_t n);

// Solves l·lᵀ x = b in place (forward, then backward substitution).
void cholesky_solve(const double* l, double* b, std::size_t n);
void cholesky_solve_generic(const double* l, double* b, std::size_t n);

// Forward substitution y = l⁻¹ b in place; returns Σ yᵢ² summed in i order.
double forward_norm2(const double* l, double* b, std::size_t n);
double forward_norm2_generic(const double* l, double* b, std::size_t n);

// Cyclic Jacobi sweeps on the symmetric n×n `a`, overwritten so that its
// diagonal holds the (unsorted) eigenvalues; `v` is overwritten with the
// product of the rotations (columns = eigenvectors). Sweeps stop
// once the off-diagonal norm is at most tol · max(1, max|aᵢⱼ|), or after
// 100 sweeps.
void jacobi_eigen(double* a, double* v, std::size_t n, double tol);
void jacobi_eigen_generic(double* a, double* v, std::size_t n, double tol);

}  // namespace roboads::kernels
