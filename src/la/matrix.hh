/**
 * @file
 * Dense row-major matrix with the operations the capacitance extractor
 * needs: element access, matrix-vector products, and basic norms.
 */

#ifndef NANOBUS_LA_MATRIX_HH
#define NANOBUS_LA_MATRIX_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace nanobus {

namespace la_detail {

/**
 * Allocator whose value-construct is default-init: for doubles, a
 * no-op instead of zero-fill. Matrix::uninitialized uses it so the
 * backing pages are *allocated* but not *touched* on the constructing
 * thread — on NUMA hosts each page then faults onto the node of the
 * thread that first writes it (first-touch placement; see
 * docs/PARALLELISM.md). Everything else (copy, fill-construct) is
 * plain std::allocator behaviour.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };

    template <typename U>
    void construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

} // namespace la_detail

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix initialized to `fill`. */
    Matrix(size_t rows, size_t cols, double fill = 0.0);

    /**
     * rows x cols matrix whose elements are NOT initialized — every
     * element is garbage until written. Only for callers that
     * provably write every element before any read (the parallel BEM
     * row assembly): skipping the zero-fill keeps the constructing
     * thread from first-touching pages that pool workers will own.
     */
    static Matrix uninitialized(size_t rows, size_t cols);

    /** Identity matrix of order n. */
    static Matrix identity(size_t n);

    /** Number of rows. */
    size_t rows() const { return rows_; }

    /** Number of columns. */
    size_t cols() const { return cols_; }

    /** Mutable element access (bounds-checked via panic in debug use). */
    double &at(size_t r, size_t c);

    /** Const element access. */
    double at(size_t r, size_t c) const;

    /** Unchecked element access for hot loops. */
    double &operator()(size_t r, size_t c)
    {
        return data_[r * cols_ + c];
    }

    /** Unchecked const element access. */
    double operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Pointer to the start of row r. */
    double *rowPtr(size_t r) { return data_.data() + r * cols_; }

    /** Const pointer to the start of row r. */
    const double *rowPtr(size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /** y = A * x; x.size() must equal cols(). */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /** Matrix product A * B; b.rows() must equal cols(). */
    Matrix multiply(const Matrix &b) const;

    /** Transposed copy. */
    Matrix transposed() const;

    /** Maximum absolute element. */
    double maxAbs() const;

    /** Largest absolute asymmetry |a_ij - a_ji| (square matrices). */
    double asymmetry() const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    // Default-init allocator so uninitialized() can skip the
    // zero-fill; the (rows, cols, fill) constructor still value-fills
    // explicitly, so normal construction behaves as before.
    std::vector<double, la_detail::DefaultInitAllocator<double>> data_;
};

} // namespace nanobus

#endif // NANOBUS_LA_MATRIX_HH
