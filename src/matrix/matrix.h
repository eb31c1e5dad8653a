// Dense, dynamically-sized linear algebra for the RoboADS estimation stack.
//
// The library is deliberately small and double-only: every matrix the
// detection system manipulates (state covariances, Jacobians, innovation
// covariances) is tiny (< 12x12) and dense, so clarity and checked access win
// over genericity. Matrices are row-major, value types with deep copy.
//
// Storage is inline-first: elements up to a small fixed capacity live inside
// the Vector/Matrix object itself and only larger workloads (LiDAR scans,
// planner samples) spill to the heap. The detector hot path — a NUISE step on
// any of the paper's platforms — therefore performs no heap allocation at
// all in steady state (asserted by tests/nuise_alloc_test.cc; see
// docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/check.h"

namespace roboads {

namespace detail {

// Inline-first element storage: up to `Inline` doubles in the object, heap
// fallback above that. Value semantics; moves of inline payloads copy the
// live elements (cheap by construction — they are small).
template <std::size_t Inline>
class ElementStore {
 public:
  ElementStore() = default;
  ElementStore(std::size_t n, double fill) { assign(n, fill); }
  ElementStore(const ElementStore& other) { copy_from(other); }
  ElementStore(ElementStore&& other) noexcept { move_from(std::move(other)); }
  ElementStore& operator=(const ElementStore& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  ElementStore& operator=(ElementStore&& other) noexcept {
    if (this != &other) move_from(std::move(other));
    return *this;
  }

  void assign(std::size_t n, double fill) {
    if (n > Inline) {
      heap_.assign(n, fill);
    } else {
      heap_.clear();
      for (std::size_t i = 0; i < n; ++i) inline_[i] = fill;
    }
    size_ = n;
  }

  // Sets the size to `n` leaving inline elements unwritten.
  void resize_for_overwrite(std::size_t n) {
    if (n > Inline) {
      heap_.resize(n);
    } else {
      heap_.clear();
    }
    size_ = n;
  }

  // Takes ownership of `v` (no copy when it spills to the heap).
  void adopt(std::vector<double>&& v) {
    if (v.size() > Inline) {
      heap_ = std::move(v);
      size_ = heap_.size();
    } else {
      heap_.clear();
      for (std::size_t i = 0; i < v.size(); ++i) inline_[i] = v[i];
      size_ = v.size();
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double* data() { return size_ > Inline ? heap_.data() : inline_; }
  const double* data() const {
    return size_ > Inline ? heap_.data() : inline_;
  }
  double& operator[](std::size_t i) { return data()[i]; }
  double operator[](std::size_t i) const { return data()[i]; }

  double* begin() { return data(); }
  double* end() { return data() + size_; }
  const double* begin() const { return data(); }
  const double* end() const { return data() + size_; }

 private:
  void copy_from(const ElementStore& other) {
    if (other.size_ > Inline) {
      heap_ = other.heap_;
    } else {
      heap_.clear();
      for (std::size_t i = 0; i < other.size_; ++i)
        inline_[i] = other.inline_[i];
    }
    size_ = other.size_;
  }
  void move_from(ElementStore&& other) noexcept {
    if (other.size_ > Inline) {
      heap_ = std::move(other.heap_);
    } else {
      heap_.clear();
      for (std::size_t i = 0; i < other.size_; ++i)
        inline_[i] = other.inline_[i];
    }
    size_ = other.size_;
    other.heap_.clear();
    other.size_ = 0;
  }

  std::size_t size_ = 0;
  double inline_[Inline];
  std::vector<double> heap_;
};

}  // namespace detail

// Inline capacities: the largest detector-path vector is the full stacked
// reading (10 on the Khepera — two 3-dof pose sensors plus the 4-dof LiDAR
// nav block); the largest matrix is the all-reference innovation covariance
// (10x10). One spare row/column of headroom each.
inline constexpr std::size_t kVectorInlineDoubles = 16;
inline constexpr std::size_t kMatrixInlineDoubles = 121;  // 11x11

class Matrix;

// A real column vector with value semantics.
class Vector {
 public:
  Vector() = default;
  // Zero vector of dimension `n`.
  explicit Vector(std::size_t n) : data_(n, 0.0) {}
  Vector(std::size_t n, double fill) : data_(n, fill) {}
  Vector(std::initializer_list<double> values) {
    data_.assign(values.size(), 0.0);
    std::size_t i = 0;
    for (double v : values) data_[i++] = v;
  }
  explicit Vector(std::vector<double> values) {
    data_.adopt(std::move(values));
  }
  // Dimension `n` with elements left unwritten, for code that stores every
  // element before reading any (the kernels of matrix/kernels.h).
  static Vector for_overwrite(std::size_t n) {
    Vector v;
    v.data_.resize_for_overwrite(n);
    return v;
  }

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) {
    ROBOADS_CHECK(i < data_.size(), "vector index out of range");
    return data_[i];
  }
  double operator[](std::size_t i) const {
    ROBOADS_CHECK(i < data_.size(), "vector index out of range");
    return data_[i];
  }

  // Raw contiguous element access (size() doubles).
  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  // Elementwise arithmetic. Dimensions must match.
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  // Contiguous sub-vector [start, start+len).
  Vector segment(std::size_t start, std::size_t len) const;
  // Writes `v` into [start, start+v.size()).
  void set_segment(std::size_t start, const Vector& v);

  double dot(const Vector& rhs) const;
  double norm() const;      // Euclidean norm.
  double norm_inf() const;  // max |x_i|.
  double sum() const;

  // True when every component is finite (no NaN/Inf).
  bool all_finite() const;

  // Interprets the vector as an n x 1 matrix.
  Matrix as_column() const;
  // Interprets the vector as a 1 x n matrix.
  Matrix as_row() const;

  // Concatenates this vector with `tail`.
  Vector concat(const Vector& tail) const;

  std::string to_string() const;

 private:
  detail::ElementStore<kVectorInlineDoubles> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(Vector v, double s);
Vector operator*(double s, Vector v);
Vector operator/(Vector v, double s);
Vector operator-(Vector v);
bool operator==(const Vector& a, const Vector& b);
std::ostream& operator<<(std::ostream& os, const Vector& v);

// A real dense matrix, row-major, with value semantics.
class Matrix {
 public:
  Matrix() = default;
  // Zero matrix of shape rows x cols.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  // Row-major initializer: Matrix{{1,2},{3,4}}. All rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  // Shape rows x cols with elements left unwritten, for code that stores
  // every element before reading any (the kernels of matrix/kernels.h).
  static Matrix for_overwrite(std::size_t rows, std::size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize_for_overwrite(rows * cols);
    return m;
  }
  static Matrix identity(std::size_t n);
  static Matrix diagonal(const Vector& d);
  // Outer product a * b^T.
  static Matrix outer(const Vector& a, const Vector& b);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  bool square() const { return rows_ == cols_; }

  // Raw contiguous row-major element access (rows() * cols() doubles).
  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  double& operator()(std::size_t i, std::size_t j) {
    ROBOADS_CHECK(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    ROBOADS_CHECK(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);
  Matrix& operator/=(double s);

  Matrix transpose() const;

  // Sub-block of shape (nrows x ncols) anchored at (i, j).
  Matrix block(std::size_t i, std::size_t j, std::size_t nrows,
               std::size_t ncols) const;
  // Writes `b` into the block anchored at (i, j).
  void set_block(std::size_t i, std::size_t j, const Matrix& b);

  Vector row(std::size_t i) const;
  Vector col(std::size_t j) const;
  Vector diagonal_vector() const;

  double trace() const;
  // Frobenius norm.
  double norm() const;
  // max_ij |a_ij|.
  double norm_inf() const;

  bool all_finite() const;
  // True when ||A - A^T||_inf <= tol * max(1, ||A||_inf).
  bool is_symmetric(double tol = 1e-9) const;

  // Returns (A + A^T) / 2; used to keep covariance propagation symmetric in
  // the face of floating-point drift.
  Matrix symmetrized() const;
  // In-place (A + A^T) / 2; trivially aliasing-safe.
  void symmetrize();

  // Stacks `bottom` below this matrix (column counts must match).
  Matrix vstack(const Matrix& bottom) const;
  // Stacks `right` beside this matrix (row counts must match).
  Matrix hstack(const Matrix& right) const;

  std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  detail::ElementStore<kMatrixInlineDoubles> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& a, const Vector& x);
Matrix operator*(Matrix m, double s);
Matrix operator*(double s, Matrix m);
Matrix operator/(Matrix m, double s);
Matrix operator-(Matrix m);
bool operator==(const Matrix& a, const Matrix& b);
std::ostream& operator<<(std::ostream& os, const Matrix& m);

// a^T * M * a, the quadratic form; `M` must be square with M.rows()==a.size().
double quadratic_form(const Matrix& m, const Vector& a);

// A * S * A^T for symmetric S — the covariance-propagation "sandwich". Only
// the lower triangle is accumulated and then mirrored, so the result is
// exactly symmetric (no post-hoc symmetrized() pass needed) at roughly half
// the flops of the naive triple product.
Matrix sandwich(const Matrix& a, const Matrix& s);

// c += alpha * a * a^T, the symmetric rank-k update. Accumulates the lower
// triangle and mirrors, preserving exact symmetry of `c`. Aliasing-safe:
// when `c` and `a` are the same object the update runs on a copy of `a`.
void sym_rank_k_update(Matrix& c, const Matrix& a, double alpha = 1.0);

// c += alpha * (y + y^T). Each mirrored element pair is accumulated from the
// same sum, so an exactly symmetric `c` stays exactly symmetric — the
// building block for the cross-covariance terms of the NUISE update.
void add_self_adjoint(Matrix& c, const Matrix& y, double alpha = 1.0);

}  // namespace roboads
