/**
 * @file
 * Structured sparse matrices for the thermal-RC solver: a tridiagonal
 * band, optionally *bordered* by one dense row/column pair (the shared
 * BEOL stack node every wire sinks into), with Thomas-algorithm
 * factor/solve.
 *
 * The thermal network's Jacobian is nearest-neighbor (lateral
 * resistances couple wire i only to i±1) plus, in StackMode::Dynamic,
 * one node coupled to *all* wires. Dense LU on that structure wastes
 * O(n^3) work and O(n^2) memory; the band form factors and solves in
 * O(n) of both, which is what makes 10k-wire buses steppable
 * (docs/THERMAL.md).
 *
 * Stability contract: factorization runs *without pivoting* (pivoting
 * would destroy the band). That is numerically safe exactly for the
 * diagonally dominant systems this layer exists for — conductance
 * matrices G and implicit-stepper operators (I − dt·A), both weakly
 * diagonally dominant M-matrices. Callers with general matrices must
 * use la/lu. A pivot collapsing below the same scaled tolerance
 * la/lu uses (n * eps * max|a_ij|) is still reported as singular.
 *
 * The entry styles mirror la/lu: the constructor keeps the fatal()
 * contract for internally generated inputs; tryFactor()/trySolve()
 * return Result values so batch drivers survive one bad system; and
 * reciprocalCondition() gives the same Hager 1-norm estimate.
 */

#ifndef NANOBUS_LA_BANDED_HH
#define NANOBUS_LA_BANDED_HH

#include <cstddef>
#include <vector>

#include "la/matrix.hh"
#include "util/result.hh"

namespace nanobus {

/**
 * Tridiagonal matrix of order n, optionally bordered by a dense last
 * row and column (order n+1 total). Storage is four O(n) arrays:
 *
 *     | d0 u0            c0 |        diag(i)   = a(i, i)
 *     | l0 d1 u1         c1 |        upper(i)  = a(i, i+1)
 *     |    l1 d2 u2      c2 |        lower(i)  = a(i+1, i)
 *     |       l2 d3      c3 |        borderCol(i) = a(i, n)
 *     | r0 r1 r2 r3      dc |        borderRow(i) = a(n, i)
 *                                    corner()     = a(n, n)
 *
 * Elements default to zero, so assembly only writes the couplings
 * that exist.
 */
class BandedMatrix
{
  public:
    /** Empty 0x0 matrix. */
    BandedMatrix() = default;

    /** Pure tridiagonal matrix of order n (no border). */
    static BandedMatrix tridiagonal(size_t n);

    /** Tridiagonal block of order n bordered by one dense row and
     *  column; total order n + 1. */
    static BandedMatrix bordered(size_t n);

    /** Total order (band + border node when present). */
    size_t order() const { return diag_.size() + (bordered_ ? 1 : 0); }

    /** Order of the tridiagonal block alone. */
    size_t bandOrder() const { return diag_.size(); }

    /** Whether a dense border row/column is present. */
    bool hasBorder() const { return bordered_; }

    /** Main diagonal of the band, a(i, i) for i < bandOrder(). */
    double &diag(size_t i) { return diag_[i]; }
    double diag(size_t i) const { return diag_[i]; }

    /** Superdiagonal a(i, i+1), i < bandOrder() - 1. */
    double &upper(size_t i) { return upper_[i]; }
    double upper(size_t i) const { return upper_[i]; }

    /** Subdiagonal a(i+1, i), i < bandOrder() - 1. */
    double &lower(size_t i) { return lower_[i]; }
    double lower(size_t i) const { return lower_[i]; }

    /** Border column a(i, n) (bordered matrices only). */
    double &borderCol(size_t i) { return border_col_[i]; }
    double borderCol(size_t i) const { return border_col_[i]; }

    /** Border row a(n, i) (bordered matrices only). */
    double &borderRow(size_t i) { return border_row_[i]; }
    double borderRow(size_t i) const { return border_row_[i]; }

    /** Corner a(n, n) (bordered matrices only). */
    double &corner() { return corner_; }
    double corner() const { return corner_; }

    /** y = A x; x.size() must equal order(). O(n). */
    void multiply(const std::vector<double> &x,
                  std::vector<double> &y) const;

    /** Dense copy (O(n^2) memory): tests, validation and the
     *  narrow-network RK4 propagator (src/thermal/network.cc). */
    Matrix toDense() const;

    /** 1-norm (maximum absolute column sum). */
    double norm1() const;

    /** Maximum absolute element. */
    double maxAbs() const;

  private:
    explicit BandedMatrix(size_t n, bool bordered);

    std::vector<double> diag_;
    std::vector<double> lower_;
    std::vector<double> upper_;
    std::vector<double> border_row_;
    std::vector<double> border_col_;
    double corner_ = 0.0;
    bool bordered_ = false;
};

/**
 * LU factorization of a BandedMatrix, reusable across many
 * right-hand sides (the implicit thermal stepper factors once per
 * interval and solves every step).
 *
 * Tridiagonal part: the Thomas algorithm, A = L U with unit-lower L
 * holding the elimination multipliers and U the updated diagonal plus
 * the untouched superdiagonal — O(n) to factor, O(n) per solve.
 *
 * Bordered part: block elimination through the Schur complement. For
 * A = [[T, u], [v^T, d]] with T tridiagonal, factor T, precompute
 * w = T^-1 u and wt = T^-T v, and s = d - v^T w; then each solve is
 * two O(n) band substitutions plus a rank-1 correction:
 *
 *     y = T^-1 b_head,  x_n = (b_n - v^T y) / s,  x_head = y - x_n w.
 */
class BandedFactorization
{
  public:
    /**
     * Factor `a` (a copy is taken). Calls fatal() if the matrix is
     * empty or singular to working precision — same contract as
     * LuFactorization's constructor.
     */
    explicit BandedFactorization(BandedMatrix a);

    /**
     * Checked factorization: returns SingularMatrix/InvalidArgument/
     * NonFinite errors instead of terminating. The fault-injection
     * site FaultSite::LuFactor can force a failure here, same as the
     * dense path.
     */
    [[nodiscard]] static Result<BandedFactorization> tryFactor(
        BandedMatrix a);

    /** Order of the factored system. */
    size_t order() const { return band_.order(); }

    /** Solve A x = b for one right-hand side. O(n). */
    std::vector<double> solve(const std::vector<double> &b) const;

    /**
     * Checked solve: rejects size mismatches and non-finite inputs
     * or outputs with an Error instead of panicking. The
     * fault-injection site FaultSite::LuSolve can force a failure.
     */
    [[nodiscard]] Result<std::vector<double>> trySolve(
        const std::vector<double> &b) const;

    /** Solve the transposed system A^T x = b (condition estimator). */
    std::vector<double> solveTransposed(
        const std::vector<double> &b) const;

    /** Determinant (product of Thomas pivots, times the Schur
     *  complement for bordered systems; no pivoting, so no sign). */
    double determinant() const;

    /** 1-norm of the original matrix A. */
    double norm1() const { return norm1_; }

    /**
     * Reciprocal 1-norm condition estimate, Hager's estimator —
     * identical semantics to LuFactorization::reciprocalCondition():
     * 1 is perfectly conditioned, values near machine epsilon mean
     * the solutions carry no trustworthy digits. O(n) per estimator
     * iteration; computed lazily and cached.
     */
    double reciprocalCondition() const;

  private:
    BandedFactorization() = default;

    Status factor();

    /** Band-only Thomas substitution, `x` sized bandOrder(). */
    void bandSolve(std::vector<double> &x) const;
    void bandSolveTransposed(std::vector<double> &x) const;

    /** Factored band: diag_ holds the U pivots, lower_ the L
     *  multipliers, upper_ the (unchanged) superdiagonal. */
    BandedMatrix band_;
    /** w = T^-1 u and wt = T^-T v (bordered only). */
    std::vector<double> border_w_;
    std::vector<double> border_wt_;
    /** Schur complement s = d - v^T w (bordered only). */
    double schur_ = 0.0;
    double norm1_ = 0.0;
    mutable double rcond_ = -1.0; // cached; negative = not computed
};

} // namespace nanobus

#endif // NANOBUS_LA_BANDED_HH
