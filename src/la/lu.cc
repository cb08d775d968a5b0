#include "la/lu.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "util/faultinject.hh"
#include "util/logging.hh"

namespace nanobus {

namespace {

bool
allFinite(const std::vector<double> &v)
{
    for (double x : v) {
        if (!std::isfinite(x))
            return false;
    }
    return true;
}

} // anonymous namespace

void
LuFactorization::serialRange(size_t count, RangeBody body)
{
    body(0, count);
}

LuFactorization::LuFactorization(Matrix a, RangeExecutor exec)
    : lu_(std::move(a))
{
    Status status = factor(exec);
    if (!status.ok())
        fatal("LuFactorization: %s", status.error().message.c_str());
}

Result<LuFactorization>
LuFactorization::tryFactor(Matrix a, RangeExecutor exec)
{
    if (FaultInjector::active() &&
        FaultInjector::instance().fireCallFault(FaultSite::LuFactor))
        return Result<LuFactorization>::failure(
            ErrorCode::FaultInjected, "injected factorization failure");

    LuFactorization lu;
    lu.lu_ = std::move(a);
    Status status = lu.factor(exec);
    if (!status.ok())
        return Result<LuFactorization>(status.error());
    return Result<LuFactorization>(std::move(lu));
}

Status
LuFactorization::factor(RangeExecutor exec)
{
    if (lu_.rows() != lu_.cols())
        return Status::failure(
            ErrorCode::InvalidArgument,
            "matrix is " + std::to_string(lu_.rows()) + "x" +
                std::to_string(lu_.cols()) + ", not square");
    const size_t n = lu_.rows();
    if (n == 0)
        return Status::failure(ErrorCode::InvalidArgument,
                               "matrix is empty");

    // Row-major sweep; each column still sums its rows in ascending
    // order.
    std::vector<double> col_sums(n, 0.0);
    double max_abs = 0.0;
    for (size_t r = 0; r < n; ++r) {
        const double *row = lu_.rowPtr(r);
        for (size_t c = 0; c < n; ++c) {
            double mag = std::fabs(row[c]);
            if (!std::isfinite(mag))
                return Status::failure(ErrorCode::NonFinite,
                                       "matrix has a non-finite entry");
            col_sums[c] += mag;
            if (mag > max_abs)
                max_abs = mag;
        }
    }
    norm1_ = *std::max_element(col_sums.begin(), col_sums.end());

    // Singularity to working precision, not exact zero: a pivot below
    // n * eps * max|a_ij| carries no trustworthy digits.
    const double pivot_tol = static_cast<double>(n) *
        std::numeric_limits<double>::epsilon() * max_abs;

    perm_.resize(n);
    for (size_t i = 0; i < n; ++i)
        perm_[i] = i;
    perm_sign_ = 1;
    rcond_ = -1.0;

    for (size_t k0 = 0; k0 < n; k0 += kBlockSize) {
        const size_t k1 = std::min(n, k0 + kBlockSize);
        Status panel = factorPanel(k0, k1, pivot_tol);
        if (!panel.ok())
            return panel;
        if (k1 < n) {
            solveUpperBlock(k0, k1, exec);
            updateTrailing(k0, k1, exec);
        }
    }
    return Status();
}

Status
LuFactorization::factorPanel(size_t k0, size_t k1, double pivot_tol)
{
    const size_t n = order();
    for (size_t k = k0; k < k1; ++k) {
        // Partial pivoting: bring the largest |a_ik| to the diagonal.
        size_t pivot = k;
        double best = std::fabs(lu_(k, k));
        for (size_t r = k + 1; r < n; ++r) {
            double mag = std::fabs(lu_(r, k));
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (best <= pivot_tol) {
            char message[128];
            std::snprintf(message, sizeof(message),
                          "singular matrix (pivot %zu magnitude %g "
                          "below tolerance %g)",
                          k, best, pivot_tol);
            return Status::failure(ErrorCode::SingularMatrix, message);
        }
        if (pivot != k) {
            std::swap_ranges(lu_.rowPtr(k), lu_.rowPtr(k) + n,
                             lu_.rowPtr(pivot));
            std::swap(perm_[k], perm_[pivot]);
            perm_sign_ = -perm_sign_;
        }
        const double diag = lu_(k, k);
        const double *row_k = lu_.rowPtr(k);
        for (size_t r = k + 1; r < n; ++r) {
            double *row_r = lu_.rowPtr(r);
            double factor = row_r[k] / diag;
            row_r[k] = factor;
            if (factor == 0.0)
                continue;
            for (size_t c = k + 1; c < k1; ++c)
                row_r[c] -= factor * row_k[c];
        }
    }
    return Status();
}

void
LuFactorization::solveUpperBlock(size_t k0, size_t k1,
                                 RangeExecutor exec)
{
    // Row i of U12 takes the panel's updates from rows k0..i-1 in
    // ascending order, exactly as the unblocked elimination applies
    // them; each chunk owns columns [k1 + begin, k1 + end).
    exec(order() - k1, [&](size_t begin, size_t end) {
        for (size_t i = k0 + 1; i < k1; ++i) {
            double *row_i = lu_.rowPtr(i);
            for (size_t k = k0; k < i; ++k) {
                const double factor = row_i[k];
                if (factor == 0.0)
                    continue;
                const double *row_k = lu_.rowPtr(k);
                for (size_t c = k1 + begin; c < k1 + end; ++c)
                    row_i[c] -= factor * row_k[c];
            }
        }
    });
}

namespace {

/** Rows and columns of the register tile of the trailing update. */
constexpr size_t kTile = 4;

/**
 * c -= l u over one full kTile x kTile tile of the trailing matrix
 * (row stride `ldc`). `l` and `u` are packed k-major: l[k*kTile + i]
 * is L21(i, k), u[k*kTile + j] is U12(k, j). The sixteen running
 * values stay in registers across the k loop; each takes its kb
 * subtractions in ascending k, one rounding per operation.
 */
void
updateTile(double *c, size_t ldc, const double *l, const double *u,
           size_t kb)
{
    double *c0 = c, *c1 = c + ldc, *c2 = c + 2 * ldc, *c3 = c + 3 * ldc;
    double a00 = c0[0], a01 = c0[1], a02 = c0[2], a03 = c0[3];
    double a10 = c1[0], a11 = c1[1], a12 = c1[2], a13 = c1[3];
    double a20 = c2[0], a21 = c2[1], a22 = c2[2], a23 = c2[3];
    double a30 = c3[0], a31 = c3[1], a32 = c3[2], a33 = c3[3];
    for (size_t k = 0; k < kb; ++k, l += kTile, u += kTile) {
        const double u0 = u[0], u1 = u[1], u2 = u[2], u3 = u[3];
        a00 -= l[0] * u0; a01 -= l[0] * u1;
        a02 -= l[0] * u2; a03 -= l[0] * u3;
        a10 -= l[1] * u0; a11 -= l[1] * u1;
        a12 -= l[1] * u2; a13 -= l[1] * u3;
        a20 -= l[2] * u0; a21 -= l[2] * u1;
        a22 -= l[2] * u2; a23 -= l[2] * u3;
        a30 -= l[3] * u0; a31 -= l[3] * u1;
        a32 -= l[3] * u2; a33 -= l[3] * u3;
    }
    c0[0] = a00; c0[1] = a01; c0[2] = a02; c0[3] = a03;
    c1[0] = a10; c1[1] = a11; c1[2] = a12; c1[3] = a13;
    c2[0] = a20; c2[1] = a21; c2[2] = a22; c2[3] = a23;
    c3[0] = a30; c3[1] = a31; c3[2] = a32; c3[3] = a33;
}

/** The same update over a partial mr x nr edge tile. */
void
updateEdgeTile(double *c, size_t ldc, const double *l, const double *u,
               size_t kb, size_t mr, size_t nr)
{
    for (size_t i = 0; i < mr; ++i) {
        for (size_t j = 0; j < nr; ++j) {
            double acc = c[i * ldc + j];
            for (size_t k = 0; k < kb; ++k)
                acc -= l[k * kTile + i] * u[k * kTile + j];
            c[i * ldc + j] = acc;
        }
    }
}

} // anonymous namespace

void
LuFactorization::updateTrailing(size_t k0, size_t k1,
                                RangeExecutor exec)
{
    const size_t n = order();
    const size_t kb = k1 - k0;
    const size_t width = n - k1;
    const size_t col_tiles = (width + kTile - 1) / kTile;

    // Pack U12 tile column by tile column, k-major inside a tile, so
    // the kernel streams it contiguously. Read-only while the chunks
    // run.
    std::vector<double> u_packed(col_tiles * kb * kTile, 0.0);
    for (size_t t = 0; t < col_tiles; ++t) {
        const size_t c0 = k1 + t * kTile;
        const size_t nr = std::min(kTile, n - c0);
        double *dst = u_packed.data() + t * kb * kTile;
        for (size_t k = 0; k < kb; ++k) {
            const double *src = lu_.rowPtr(k0 + k) + c0;
            for (size_t j = 0; j < nr; ++j)
                dst[k * kTile + j] = src[j];
        }
    }

    // Each chunk owns rows [k1 + begin, k1 + end) of A22 outright.
    exec(width, [&](size_t begin, size_t end) {
        double l_packed[kBlockSize * kTile];
        for (size_t r0 = k1 + begin; r0 < k1 + end; r0 += kTile) {
            const size_t mr = std::min(kTile, k1 + end - r0);
            for (size_t k = 0; k < kb; ++k) {
                for (size_t i = 0; i < mr; ++i)
                    l_packed[k * kTile + i] = lu_(r0 + i, k0 + k);
            }
            for (size_t t = 0; t < col_tiles; ++t) {
                const size_t c0 = k1 + t * kTile;
                const size_t nr = std::min(kTile, n - c0);
                double *c = lu_.rowPtr(r0) + c0;
                const double *u = u_packed.data() + t * kb * kTile;
                if (mr == kTile && nr == kTile)
                    updateTile(c, n, l_packed, u, kb);
                else
                    updateEdgeTile(c, n, l_packed, u, kb, mr, nr);
            }
        }
    });
}

std::vector<double>
LuFactorization::solve(const std::vector<double> &b) const
{
    const size_t n = order();
    if (b.size() != n)
        panic("LuFactorization::solve: rhs size %zu != order %zu",
              b.size(), n);

    // Forward substitution on the permuted RHS (L has unit diagonal).
    std::vector<double> x(n);
    for (size_t i = 0; i < n; ++i) {
        double acc = b[perm_[i]];
        const double *row = lu_.rowPtr(i);
        for (size_t j = 0; j < i; ++j)
            acc -= row[j] * x[j];
        x[i] = acc;
    }
    // Back substitution through U.
    for (size_t ii = n; ii-- > 0;) {
        double acc = x[ii];
        const double *row = lu_.rowPtr(ii);
        for (size_t j = ii + 1; j < n; ++j)
            acc -= row[j] * x[j];
        x[ii] = acc / row[ii];
    }
    return x;
}

Result<std::vector<double>>
LuFactorization::trySolve(const std::vector<double> &b) const
{
    if (FaultInjector::active() &&
        FaultInjector::instance().fireCallFault(FaultSite::LuSolve))
        return Result<std::vector<double>>::failure(
            ErrorCode::FaultInjected, "injected solve failure");

    if (b.size() != order())
        return Result<std::vector<double>>::failure(
            ErrorCode::InvalidArgument,
            "rhs size " + std::to_string(b.size()) + " != order " +
                std::to_string(order()));
    if (!allFinite(b))
        return Result<std::vector<double>>::failure(
            ErrorCode::NonFinite, "rhs has a non-finite entry");

    std::vector<double> x = solve(b);
    if (!allFinite(x))
        return Result<std::vector<double>>::failure(
            ErrorCode::NonFinite,
            "solution overflowed (matrix effectively singular)");
    return Result<std::vector<double>>(std::move(x));
}

std::vector<double>
LuFactorization::solveTransposed(const std::vector<double> &b) const
{
    const size_t n = order();
    if (b.size() != n)
        panic("LuFactorization::solveTransposed: rhs size %zu != "
              "order %zu", b.size(), n);

    // PA = LU, so A^T = U^T L^T P and A^T x = b is solved by
    // U^T z = b (forward), L^T w = z (backward), x = P^T w.
    std::vector<double> z(n);
    for (size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (size_t j = 0; j < i; ++j)
            acc -= lu_(j, i) * z[j];
        z[i] = acc / lu_(i, i);
    }
    for (size_t ii = n; ii-- > 0;) {
        double acc = z[ii];
        for (size_t j = ii + 1; j < n; ++j)
            acc -= lu_(j, ii) * z[j];
        z[ii] = acc; // L^T has unit diagonal
    }
    std::vector<double> x(n);
    for (size_t i = 0; i < n; ++i)
        x[perm_[i]] = z[i];
    return x;
}

Matrix
LuFactorization::solveMatrix(const Matrix &b) const
{
    if (b.rows() != order())
        panic("LuFactorization::solveMatrix: rhs has %zu rows, need %zu",
              b.rows(), order());
    Matrix x(b.rows(), b.cols());
    std::vector<double> column(b.rows());
    for (size_t c = 0; c < b.cols(); ++c) {
        for (size_t r = 0; r < b.rows(); ++r)
            column[r] = b(r, c);
        std::vector<double> solved = solve(column);
        for (size_t r = 0; r < b.rows(); ++r)
            x(r, c) = solved[r];
    }
    return x;
}

double
LuFactorization::determinant() const
{
    double det = static_cast<double>(perm_sign_);
    for (size_t i = 0; i < order(); ++i)
        det *= lu_(i, i);
    return det;
}

double
LuFactorization::reciprocalCondition() const
{
    if (rcond_ >= 0.0)
        return rcond_;
    const size_t n = order();
    if (norm1_ == 0.0 || n == 0) {
        rcond_ = 0.0;
        return rcond_;
    }

    // Hager's 1-norm estimator for ||A^-1||_1: iterate x -> A^-1 x
    // with sign-vector refinement through the transposed solve.
    std::vector<double> x(n, 1.0 / static_cast<double>(n));
    double estimate = 0.0;
    for (int iter = 0; iter < 5; ++iter) {
        std::vector<double> y = solve(x);
        double y_norm = 0.0;
        for (double v : y)
            y_norm += std::fabs(v);
        if (!std::isfinite(y_norm)) {
            estimate = std::numeric_limits<double>::infinity();
            break;
        }
        if (iter > 0 && y_norm <= estimate)
            break;
        estimate = y_norm;

        std::vector<double> xi(n);
        for (size_t i = 0; i < n; ++i)
            xi[i] = y[i] >= 0.0 ? 1.0 : -1.0;
        std::vector<double> z = solveTransposed(xi);
        size_t j_max = 0;
        double z_max = 0.0;
        double zx = 0.0;
        for (size_t i = 0; i < n; ++i) {
            double mag = std::fabs(z[i]);
            if (mag > z_max) {
                z_max = mag;
                j_max = i;
            }
            zx += z[i] * x[i];
        }
        if (!std::isfinite(z_max) || z_max <= zx)
            break;
        std::fill(x.begin(), x.end(), 0.0);
        x[j_max] = 1.0;
    }

    rcond_ = estimate > 0.0 && std::isfinite(estimate)
        ? 1.0 / (norm1_ * estimate)
        : 0.0;
    return rcond_;
}

} // namespace nanobus
