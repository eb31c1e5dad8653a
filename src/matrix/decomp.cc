#include "matrix/decomp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "matrix/kernels.h"
#include "matrix/kernels_impl.h"

namespace roboads {

// -------------------------------------------------------------- Cholesky --

Cholesky::Cholesky(const Matrix& a)
    : l_(Matrix::for_overwrite(a.rows(), a.cols())) {
  ROBOADS_CHECK(a.square(), "Cholesky requires a square matrix");
  ok_ = kernels::cholesky(a.data(), l_.data(), a.rows());
}

Vector Cholesky::solve(const Vector& b) const {
  Vector x(b);
  solve_in_place(x);
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  ROBOADS_CHECK_EQ(b.rows(), l_.rows(), "Cholesky solve rhs shape mismatch");
  Matrix x = Matrix::for_overwrite(b.rows(), b.cols());
  Vector col = Vector::for_overwrite(b.rows());  // one column, in place
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    solve_in_place(col);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = col[i];
  }
  return x;
}

void Cholesky::solve_in_place(Vector& b) const {
  ROBOADS_CHECK(ok_, "Cholesky solve on non-SPD matrix");
  ROBOADS_CHECK_EQ(b.size(), l_.rows(), "Cholesky solve rhs size mismatch");
  kernels::cholesky_solve(l_.data(), b.data(), b.size());
}

Matrix Cholesky::inverse() const { return solve(Matrix::identity(l_.rows())); }

double quadratic_form_spd(const Cholesky& chol, const Vector& b) {
  ROBOADS_CHECK(chol.ok(), "quadratic_form_spd on non-SPD matrix");
  const Matrix& l = chol.l();
  ROBOADS_CHECK_EQ(b.size(), l.rows(), "quadratic_form_spd size mismatch");
  // y = L^{-1} b by forward substitution; the form is then ||y||².
  Vector y(b);
  return kernels::forward_norm2(l.data(), y.data(), y.size());
}

double Cholesky::log_determinant() const {
  ROBOADS_CHECK(ok_, "log_determinant on non-SPD matrix");
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

// ------------------------------------------------------- symmetric eigen --

SymmetricEigen eigen_symmetric(const Matrix& a_in, double tol) {
  ROBOADS_CHECK(a_in.square(), "eigen_symmetric requires a square matrix");
  const std::size_t n = a_in.rows();
  Matrix a = a_in.symmetrized();
  Matrix v = Matrix::for_overwrite(n, n);
  SymmetricEigen out;
  out.eigenvalues = Vector::for_overwrite(n);
  out.eigenvectors = Matrix::for_overwrite(n, n);
  kernels::ext::eigen_symmetric(a.data(), v.data(), out.eigenvalues.data(),
                                out.eigenvectors.data(), n, tol);
  return out;
}

// ------------------------------------------------------------------- SVD --

Svd svd(const Matrix& a, double tol) {
  if (a.rows() < a.cols()) {
    // One-sided Jacobi orthogonalizes columns; transpose tall-ness in.
    Svd t = svd(a.transpose(), tol);
    return Svd{std::move(t.v), std::move(t.sigma), std::move(t.u)};
  }
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix u = a;
  Matrix v = Matrix::identity(n);

  // One-sided Jacobi: rotate column pairs of U until mutually orthogonal.
  for (int sweep = 0; sweep < 100; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += u(i, p) * u(i, p);
          beta += u(i, q) * u(i, q);
          gamma += u(i, p) * u(i, q);
        }
        if (std::abs(gamma) <= tol * std::sqrt(alpha * beta) ||
            gamma == 0.0) {
          continue;
        }
        converged = false;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double uip = u(i, p);
          const double uiq = u(i, q);
          u(i, p) = c * uip - s * uiq;
          u(i, q) = s * uip + c * uiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
    if (converged) break;
  }

  // Column norms are the singular values; normalize U.
  Vector sigma(n);
  for (std::size_t j = 0; j < n; ++j) {
    double norm2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm2 += u(i, j) * u(i, j);
    sigma[j] = std::sqrt(norm2);
    if (sigma[j] > 0.0) {
      for (std::size_t i = 0; i < m; ++i) u(i, j) /= sigma[j];
    }
  }

  // Sort descending by singular value.
  kernels::ext::IndexScratch<std::size_t> order_buf;
  std::size_t* order = order_buf.get(n);
  std::iota(order, order + n, std::size_t{0});
  std::sort(order, order + n,
            [&](std::size_t i, std::size_t j) { return sigma[i] > sigma[j]; });

  Svd out;
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  out.sigma = Vector(n);
  for (std::size_t j = 0; j < n; ++j) {
    out.sigma[j] = sigma[order[j]];
    for (std::size_t i = 0; i < m; ++i) out.u(i, j) = u(i, order[j]);
    for (std::size_t i = 0; i < n; ++i) out.v(i, j) = v(i, order[j]);
  }
  return out;
}

namespace {

double rank_threshold(const Svd& s, std::size_t m, std::size_t n,
                      double rel_tol) {
  const double smax = s.sigma.size() ? s.sigma[0] : 0.0;
  return rel_tol * static_cast<double>(std::max(m, n)) * std::max(smax, 1e-300);
}

}  // namespace

std::size_t rank(const Matrix& a, double rel_tol) {
  if (a.empty()) return 0;
  const Svd s = svd(a);
  const double thresh = rank_threshold(s, a.rows(), a.cols(), rel_tol);
  std::size_t r = 0;
  for (std::size_t i = 0; i < s.sigma.size(); ++i)
    if (s.sigma[i] > thresh) ++r;
  return r;
}

Matrix pseudo_inverse(const Matrix& a, double rel_tol) {
  if (a.empty()) return a.transpose();
  const Svd s = svd(a);
  const double thresh = rank_threshold(s, a.rows(), a.cols(), rel_tol);
  // pinv(A) = V * diag(1/sigma_i for sigma_i > thresh) * U^T
  Matrix scaled_v = s.v;  // n x k, columns scaled by inverse singular values
  for (std::size_t j = 0; j < s.sigma.size(); ++j) {
    const double inv = s.sigma[j] > thresh ? 1.0 / s.sigma[j] : 0.0;
    for (std::size_t i = 0; i < scaled_v.rows(); ++i) scaled_v(i, j) *= inv;
  }
  return scaled_v * s.u.transpose();
}

double log_pseudo_determinant(const Matrix& a, double rel_tol) {
  if (a.empty()) return 0.0;
  const Svd s = svd(a);
  const double thresh = rank_threshold(s, a.rows(), a.cols(), rel_tol);
  double acc = 0.0;
  for (std::size_t i = 0; i < s.sigma.size(); ++i)
    if (s.sigma[i] > thresh) acc += std::log(s.sigma[i]);
  return acc;
}

Matrix inverse_spd(const Matrix& a) {
  Cholesky chol(a);
  if (chol.ok()) return chol.inverse();
  return pseudo_inverse(a);
}

Matrix spd_pseudo_inverse(const Matrix& a, double rel_tol) {
  ROBOADS_CHECK(a.square(), "spd_pseudo_inverse requires a square matrix");
  if (a.empty()) return a;
  return SpdEigenFactor(a, rel_tol).pseudo_inverse();
}

// -------------------------------------------------------- SpdEigenFactor --

SpdEigenFactor::SpdEigenFactor(const Matrix& a, double rel_tol,
                               bool dim_scaled) {
  ROBOADS_CHECK(a.square(), "SpdEigenFactor requires a square matrix");
  const std::size_t n = a.rows();
  Matrix s(a);
  Matrix v = Matrix::for_overwrite(n, n);
  eig_.eigenvalues = Vector::for_overwrite(n);
  eig_.eigenvectors = Matrix::for_overwrite(n, n);
  cutoff_ = kernels::ext::spd_eigen_factor(
      s.data(), v.data(), eig_.eigenvalues.data(), eig_.eigenvectors.data(),
      n, rel_tol, dim_scaled);
  rank_ = kernels::ext::eigen_rank(eig_.eigenvalues.data(), n, cutoff_);
}

Matrix SpdEigenFactor::pseudo_inverse() const {
  const std::size_t n = dim();
  Matrix scaled = Matrix::for_overwrite(n, n);
  Matrix vt = Matrix::for_overwrite(n, n);
  Matrix out = Matrix::for_overwrite(n, n);
  kernels::ext::eigen_pseudo_inverse(eig_.eigenvalues.data(),
                                     eig_.eigenvectors.data(), cutoff_,
                                     scaled.data(), vt.data(), out.data(), n);
  return out;
}

Vector SpdEigenFactor::solve(const Vector& b) const {
  const std::size_t n = dim();
  ROBOADS_CHECK_EQ(b.size(), n, "SpdEigenFactor solve size mismatch");
  Vector x = Vector::for_overwrite(n);
  kernels::ext::eigen_solve(eig_.eigenvalues.data(), eig_.eigenvectors.data(),
                            cutoff_, b.data(), x.data(), n);
  return x;
}

double SpdEigenFactor::quadratic_form(const Vector& b) const {
  const std::size_t n = dim();
  ROBOADS_CHECK_EQ(b.size(), n, "SpdEigenFactor quadratic form size mismatch");
  return kernels::ext::eigen_quadratic_form(eig_.eigenvalues.data(),
                                            eig_.eigenvectors.data(), cutoff_,
                                            b.data(), n);
}

double SpdEigenFactor::log_pseudo_determinant() const {
  return kernels::ext::eigen_log_pseudo_determinant(eig_.eigenvalues.data(),
                                                    cutoff_, dim());
}

// ------------------------------------------------------------- SpdFactor --

SpdFactor::SpdFactor(const Matrix& a, double rel_tol) : chol_(a) {
  // A numerically "successful" factorization can still hide structural
  // rank deficiency behind a rounding-noise pivot: an exactly singular
  // matrix whose zero pivot computes to ~1e-16 passes the diag > 0 check,
  // and a solve through that pivot amplifies the rhs by ~1e16. Distrust
  // the factor whenever its smallest pivot is negligible against the
  // matrix scale and use the eigen pseudo-inverse semantics instead.
  const bool trusted =
      chol_.ok() && kernels::ext::cholesky_trusted(a.data(), chol_.l().data(),
                                                   a.rows(), rel_tol);
  if (!trusted) eig_.emplace(a, rel_tol);
}

std::size_t SpdFactor::dim() const {
  return eig_ ? eig_->dim() : chol_.l().rows();
}

Vector SpdFactor::solve(const Vector& b) const {
  if (!eig_) {
    Vector x(b);
    chol_.solve_in_place(x);
    return x;
  }
  return eig_->solve(b);
}

Matrix SpdFactor::solve(const Matrix& b) const {
  if (!eig_) return chol_.solve(b);
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const Vector xj = eig_->solve(b.col(j));
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = xj[i];
  }
  return x;
}

double SpdFactor::quadratic_form(const Vector& b) const {
  if (!eig_) return quadratic_form_spd(chol_, b);
  return eig_->quadratic_form(b);
}

double SpdFactor::log_determinant() const {
  if (!eig_) return chol_.log_determinant();
  return eig_->log_pseudo_determinant();
}

}  // namespace roboads
