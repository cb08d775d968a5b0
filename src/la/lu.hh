/**
 * @file
 * LU factorization with partial pivoting and dense linear solves.
 *
 * The boundary-element extractor produces moderately sized dense
 * systems (a thousand-odd unknowns); LU with partial pivoting is exact
 * enough and simple enough for that regime.
 *
 * The elimination is blocked and right-looking. Each block column of
 * kBlockSize columns is (1) factored as a panel with partial pivoting
 * and whole-row swaps, (2) used to solve the unit-lower triangular
 * system for the U12 block to its right, and (3) applied to the
 * trailing submatrix as A22 -= L21 U12 through a register-blocked 4x4
 * tile. Step (3) is nearly all of the O(n^3) work; it runs over fixed
 * row chunks (step 2 over column chunks) through a RangeExecutor the
 * caller passes in (la knows no thread pool; the extractor hands it
 * exec::parallelFor). Every element is updated by the one chunk
 * owning its row (column, in step 2), subtracting l_rk u_kc one k at
 * a time in ascending k — the same operations, in the same order, as
 * the unblocked elimination, so the factors equal its factors (up to
 * the sign of an exact zero: the tiles do not skip zero
 * multipliers). They are bit-identical under any executor and pool
 * size, and at n <= kBlockSize the code *is* the unblocked
 * elimination (one panel, no U12, no trailing update), so the small
 * inversions (capacitance matrices, axial conduction) keep their
 * bits.
 *
 * Two entry styles are offered. The constructor keeps the historical
 * contract — fatal() on a non-square or singular matrix — for callers
 * whose inputs are internally generated and must be valid. tryFactor()
 * and trySolve() return Result values instead, so batch drivers can
 * survive one ill-conditioned extraction without losing the sweep
 * (see docs/ROBUSTNESS.md). Singularity is decided by a *scaled*
 * pivot tolerance (n * eps * max|a_ij|), not an exact-zero test: a
 * pivot of 1e-18 in a matrix of O(1) entries is singular to working
 * precision even though it is not zero.
 */

#ifndef NANOBUS_LA_LU_HH
#define NANOBUS_LA_LU_HH

#include <vector>

#include "la/matrix.hh"
#include "util/function_ref.hh"
#include "util/result.hh"

namespace nanobus {

/**
 * LU factorization PA = LU of a square matrix, reusable across many
 * right-hand sides (the extractor solves one RHS per conductor).
 */
class LuFactorization
{
  public:
    /**
     * Columns per block column of the elimination. On the 1584-panel
     * BEM system 32 measured fastest at 4 threads (0.15-0.18 s vs
     * 0.23-0.24 s at 64, whose serial panels cost twice as much);
     * on one thread the two were within 10%. Systems of at most this
     * order run the unblocked elimination unchanged.
     */
    static constexpr size_t kBlockSize = 32;

    /** One chunk of an index range: processes [begin, end). */
    using RangeBody = FunctionRef<void(size_t begin, size_t end)>;

    /**
     * Runs `body` over [0, count) split into disjoint chunks that
     * cover the range exactly once, in any order and concurrently if
     * it likes, and returns when all chunks are done. The chunk
     * boundaries cannot change the result (see the file comment).
     */
    using RangeExecutor = FunctionRef<void(size_t count, RangeBody body)>;

    /** The serial executor: body(0, count) on the calling thread. */
    static void serialRange(size_t count, RangeBody body);

    /**
     * Factor `a` in place (a copy is taken). Calls fatal() if the
     * matrix is non-square or singular to working precision. The
     * U12 solves and trailing updates run through `exec`.
     */
    explicit LuFactorization(Matrix a, RangeExecutor exec = serialRange);

    /**
     * Checked factorization: returns SingularMatrix/InvalidArgument
     * errors instead of terminating. The fault-injection site
     * FaultSite::LuFactor can force a failure here.
     */
    [[nodiscard]] static Result<LuFactorization> tryFactor(
        Matrix a, RangeExecutor exec = serialRange);

    /** Order of the factored system. */
    size_t order() const { return lu_.rows(); }

    /** The packed factors: U on and above the diagonal, the
     *  unit-lower L's multipliers below it. */
    const Matrix &factors() const { return lu_; }

    /** Row permutation P: row i of PA is row permutation()[i] of A. */
    const std::vector<size_t> &permutation() const { return perm_; }

    /** Solve A x = b for one right-hand side. */
    std::vector<double> solve(const std::vector<double> &b) const;

    /**
     * Checked solve: rejects size mismatches and non-finite inputs
     * or outputs with an Error instead of panicking. The
     * fault-injection site FaultSite::LuSolve can force a failure.
     */
    [[nodiscard]] Result<std::vector<double>> trySolve(
        const std::vector<double> &b) const;

    /** Solve the transposed system A^T x = b (used by the condition
     *  estimator; also generally useful for adjoint problems). */
    std::vector<double> solveTransposed(
        const std::vector<double> &b) const;

    /**
     * Solve A X = B column-by-column; returns X with B's shape.
     */
    Matrix solveMatrix(const Matrix &b) const;

    /** Determinant of A (product of pivots with sign). */
    double determinant() const;

    /** 1-norm of the original matrix A. */
    double norm1() const { return norm1_; }

    /**
     * Reciprocal 1-norm condition estimate 1 / (||A||_1 ||A^-1||_1)
     * using Hager's estimator (a handful of O(n^2) solves; computed
     * lazily and cached). 1 means perfectly conditioned, values near
     * machine epsilon mean solutions carry no trustworthy digits.
     */
    double reciprocalCondition() const;

  private:
    LuFactorization() = default;

    /** Shared blocked elimination; `lu_` must hold the input. */
    Status factor(RangeExecutor exec);

    /** Factor block column [k0, k1) over rows [k0, n) with partial
     *  pivoting, swapping whole rows. */
    Status factorPanel(size_t k0, size_t k1, double pivot_tol);

    /** U12 of block column [k0, k1): solve the unit-lower triangle
     *  of the panel's top rows against columns [k1, n), chunked by
     *  column. */
    void solveUpperBlock(size_t k0, size_t k1, RangeExecutor exec);

    /** A22 -= L21 U12 for block column [k0, k1), chunked by row. */
    void updateTrailing(size_t k0, size_t k1, RangeExecutor exec);

    Matrix lu_;
    std::vector<size_t> perm_;
    int perm_sign_ = 1;
    double norm1_ = 0.0;
    mutable double rcond_ = -1.0; // cached; negative = not yet computed
};

} // namespace nanobus

#endif // NANOBUS_LA_LU_HH
