#include "matrix/matrix.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "matrix/kernels.h"
#include "matrix/kernels_impl.h"

namespace roboads {

// ---------------------------------------------------------------- Vector --

Vector& Vector::operator+=(const Vector& rhs) {
  ROBOADS_CHECK_EQ(size(), rhs.size(), "vector addition size mismatch");
  kernels::ext::add(data(), rhs.data(), size(), std::size_t{1});
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  ROBOADS_CHECK_EQ(size(), rhs.size(), "vector subtraction size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  kernels::ext::scale(data(), s, size(), std::size_t{1});
  return *this;
}

Vector& Vector::operator/=(double s) {
  ROBOADS_CHECK(s != 0.0, "vector division by zero");
  for (double& x : data_) x /= s;
  return *this;
}

Vector Vector::segment(std::size_t start, std::size_t len) const {
  ROBOADS_CHECK(start + len <= size(), "vector segment out of range");
  Vector out(len);
  std::copy(data_.begin() + start, data_.begin() + start + len,
            out.data_.begin());
  return out;
}

void Vector::set_segment(std::size_t start, const Vector& v) {
  ROBOADS_CHECK(start + v.size() <= size(), "vector set_segment out of range");
  std::copy(v.data_.begin(), v.data_.end(), data_.begin() + start);
}

double Vector::dot(const Vector& rhs) const {
  ROBOADS_CHECK_EQ(size(), rhs.size(), "dot product size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) acc += data_[i] * rhs.data_[i];
  return acc;
}

double Vector::norm() const { return std::sqrt(dot(*this)); }

double Vector::norm_inf() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

double Vector::sum() const {
  double acc = 0.0;
  for (double x : data_) acc += x;
  return acc;
}

bool Vector::all_finite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](double x) { return std::isfinite(x); });
}

Matrix Vector::as_column() const {
  Matrix m(size(), 1);
  for (std::size_t i = 0; i < size(); ++i) m(i, 0) = data_[i];
  return m;
}

Matrix Vector::as_row() const {
  Matrix m(1, size());
  for (std::size_t i = 0; i < size(); ++i) m(0, i) = data_[i];
  return m;
}

Vector Vector::concat(const Vector& tail) const {
  Vector out(size() + tail.size());
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  std::copy(tail.data_.begin(), tail.data_.end(), out.data_.begin() + size());
  return out;
}

std::string Vector::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector v, double s) { return v *= s; }
Vector operator*(double s, Vector v) { return v *= s; }
Vector operator/(Vector v, double s) { return v /= s; }

Vector operator-(Vector v) { return v *= -1.0; }

bool operator==(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    os << v[i];
  }
  return os << "]";
}

// ---------------------------------------------------------------- Matrix --

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.assign(rows_ * cols_, 0.0);
  std::size_t i = 0;
  for (const auto& r : rows) {
    ROBOADS_CHECK_EQ(r.size(), cols_, "ragged matrix initializer");
    std::copy(r.begin(), r.end(), data_.begin() + i * cols_);
    ++i;
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::outer(const Vector& a, const Vector& b) {
  Matrix m(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) m(i, j) = a[i] * b[j];
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  ROBOADS_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                "matrix addition shape mismatch");
  kernels::ext::add(data(), rhs.data(), rows_, cols_);
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  ROBOADS_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                "matrix subtraction shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  kernels::ext::scale(data(), s, rows_, cols_);
  return *this;
}

Matrix& Matrix::operator/=(double s) {
  ROBOADS_CHECK(s != 0.0, "matrix division by zero");
  for (double& x : data_) x /= s;
  return *this;
}

Matrix Matrix::transpose() const {
  Matrix t = Matrix::for_overwrite(cols_, rows_);
  kernels::transpose(data(), t.data(), rows_, cols_);
  return t;
}

Matrix Matrix::block(std::size_t i, std::size_t j, std::size_t nrows,
                     std::size_t ncols) const {
  ROBOADS_CHECK(i + nrows <= rows_ && j + ncols <= cols_,
                "matrix block out of range");
  Matrix b(nrows, ncols);
  for (std::size_t r = 0; r < nrows; ++r)
    for (std::size_t c = 0; c < ncols; ++c) b(r, c) = (*this)(i + r, j + c);
  return b;
}

void Matrix::set_block(std::size_t i, std::size_t j, const Matrix& b) {
  ROBOADS_CHECK(i + b.rows() <= rows_ && j + b.cols() <= cols_,
                "matrix set_block out of range");
  for (std::size_t r = 0; r < b.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) (*this)(i + r, j + c) = b(r, c);
}

Vector Matrix::row(std::size_t i) const {
  ROBOADS_CHECK(i < rows_, "row index out of range");
  Vector v(cols_);
  for (std::size_t j = 0; j < cols_; ++j) v[j] = (*this)(i, j);
  return v;
}

Vector Matrix::col(std::size_t j) const {
  ROBOADS_CHECK(j < cols_, "column index out of range");
  Vector v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

Vector Matrix::diagonal_vector() const {
  std::size_t n = std::min(rows_, cols_);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = (*this)(i, i);
  return v;
}

double Matrix::trace() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < std::min(rows_, cols_); ++i)
    acc += (*this)(i, i);
  return acc;
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Matrix::norm_inf() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

bool Matrix::all_finite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](double x) { return std::isfinite(x); });
}

bool Matrix::is_symmetric(double tol) const {
  if (!square()) return false;
  const double scale = std::max(1.0, norm_inf());
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j)
      if (std::abs((*this)(i, j) - (*this)(j, i)) > tol * scale) return false;
  return true;
}

Matrix Matrix::symmetrized() const {
  Matrix s(*this);
  s.symmetrize();
  return s;
}

void Matrix::symmetrize() {
  ROBOADS_CHECK(square(), "symmetrize() requires a square matrix");
  kernels::ext::symmetrize(data(), rows_);
}

Matrix Matrix::vstack(const Matrix& bottom) const {
  if (empty()) return bottom;
  if (bottom.empty()) return *this;
  ROBOADS_CHECK_EQ(cols_, bottom.cols_, "vstack column mismatch");
  Matrix out(rows_ + bottom.rows_, cols_);
  out.set_block(0, 0, *this);
  out.set_block(rows_, 0, bottom);
  return out;
}

Matrix Matrix::hstack(const Matrix& right) const {
  if (empty()) return right;
  if (right.empty()) return *this;
  ROBOADS_CHECK_EQ(rows_, right.rows_, "hstack row mismatch");
  Matrix out(rows_, cols_ + right.cols_);
  out.set_block(0, 0, *this);
  out.set_block(0, cols_, right);
  return out;
}

std::string Matrix::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  ROBOADS_CHECK_EQ(a.cols(), b.rows(), "matrix product shape mismatch");
  Matrix out = Matrix::for_overwrite(a.rows(), b.cols());
  kernels::product(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                   b.cols());
  return out;
}

Vector operator*(const Matrix& a, const Vector& x) {
  ROBOADS_CHECK_EQ(a.cols(), x.size(), "matrix-vector shape mismatch");
  Vector out = Vector::for_overwrite(a.rows());
  kernels::matvec(a.data(), x.data(), out.data(), a.rows(), a.cols());
  return out;
}

Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }
Matrix operator/(Matrix m, double s) { return m /= s; }

Matrix operator-(Matrix m) { return m *= -1.0; }

bool operator==(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (a(i, j) != b(i, j)) return false;
  return true;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "[";
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (i) os << "; ";
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j) os << ", ";
      os << m(i, j);
    }
  }
  return os << "]";
}

double quadratic_form(const Matrix& m, const Vector& a) {
  ROBOADS_CHECK(m.square() && m.rows() == a.size(),
                "quadratic form shape mismatch");
  return a.dot(m * a);
}

Matrix sandwich(const Matrix& a, const Matrix& s) {
  ROBOADS_CHECK(s.square() && a.cols() == s.rows(),
                "sandwich shape mismatch");
  // as = A * S, then C = as * A^T accumulated on the lower triangle only and
  // mirrored, so C is exactly symmetric by construction.
  Matrix as = Matrix::for_overwrite(a.rows(), a.cols());
  Matrix c = Matrix::for_overwrite(a.rows(), a.rows());
  kernels::sandwich(a.data(), s.data(), as.data(), c.data(), a.rows(),
                    a.cols());
  return c;
}

void add_self_adjoint(Matrix& c, const Matrix& y, double alpha) {
  ROBOADS_CHECK(c.square() && y.square() && c.rows() == y.rows(),
                "add_self_adjoint shape mismatch");
  kernels::ext::add_self_adjoint(c.data(), y.data(), c.rows(), alpha);
}

void sym_rank_k_update(Matrix& c, const Matrix& a, double alpha) {
  ROBOADS_CHECK(c.square() && c.rows() == a.rows(),
                "sym_rank_k_update shape mismatch");
  if (&c == &a) {
    const Matrix copy(a);
    sym_rank_k_update(c, copy, alpha);
    return;
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * a(j, k);
      c(i, j) += alpha * acc;
      if (j != i) c(j, i) += alpha * acc;
    }
  }
}

}  // namespace roboads
