#include "la/matrix.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace nanobus {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::uninitialized(size_t rows, size_t cols)
{
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    // resize() under the default-init allocator allocates without
    // writing: no page is touched until the first real store.
    m.data_.resize(rows * cols);
    return m;
}

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n, 0.0);
    for (size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

double &
Matrix::at(size_t r, size_t c)
{
    if (r >= rows_ || c >= cols_)
        panic("Matrix::at: (%zu, %zu) out of %zux%zu", r, c, rows_, cols_);
    return data_[r * cols_ + c];
}

double
Matrix::at(size_t r, size_t c) const
{
    if (r >= rows_ || c >= cols_)
        panic("Matrix::at: (%zu, %zu) out of %zux%zu", r, c, rows_, cols_);
    return data_[r * cols_ + c];
}

std::vector<double>
Matrix::multiply(const std::vector<double> &x) const
{
    if (x.size() != cols_)
        panic("Matrix::multiply: vector size %zu != cols %zu",
              x.size(), cols_);
    std::vector<double> y(rows_, 0.0);
    for (size_t r = 0; r < rows_; ++r) {
        const double *row = rowPtr(r);
        double acc = 0.0;
        for (size_t c = 0; c < cols_; ++c)
            acc += row[c] * x[c];
        y[r] = acc;
    }
    return y;
}

Matrix
Matrix::multiply(const Matrix &b) const
{
    if (b.rows_ != cols_)
        panic("Matrix::multiply: %zux%zu times %zux%zu", rows_, cols_,
              b.rows_, b.cols_);
    Matrix c(rows_, b.cols_, 0.0);
    // i-k-j order: the inner loop streams rows of b and c.
    for (size_t r = 0; r < rows_; ++r) {
        double *out = c.rowPtr(r);
        for (size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(r, k);
            const double *in = b.rowPtr(k);
            for (size_t j = 0; j < b.cols_; ++j)
                out[j] += a * in[j];
        }
    }
    return c;
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            t(c, r) = (*this)(r, c);
    return t;
}

double
Matrix::maxAbs() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

double
Matrix::asymmetry() const
{
    if (rows_ != cols_)
        panic("Matrix::asymmetry: matrix is %zux%zu, not square",
              rows_, cols_);
    double worst = 0.0;
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = r + 1; c < cols_; ++c)
            worst = std::max(worst,
                             std::fabs((*this)(r, c) - (*this)(c, r)));
    return worst;
}

} // namespace nanobus
