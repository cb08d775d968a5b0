/**
 * @file
 * Unit and property tests for la/lu.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "la/lu.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

constexpr size_t kBlock = LuFactorization::kBlockSize;

/**
 * Reference oracle: the unblocked right-looking elimination with
 * partial pivoting, scaled pivot test and whole-row swaps that
 * LuFactorization ran before it was blocked. The blocked code must
 * reproduce its factors exactly.
 */
struct OracleLu
{
    Matrix lu;
    std::vector<size_t> perm;
    /** Index of the first pivot below tolerance, if any. */
    std::optional<size_t> singular_at;

    explicit OracleLu(Matrix a) : lu(std::move(a))
    {
        const size_t n = lu.rows();
        double max_abs = 0.0;
        for (size_t r = 0; r < n; ++r)
            for (size_t c = 0; c < n; ++c)
                max_abs = std::max(max_abs, std::fabs(lu(r, c)));
        const double pivot_tol = static_cast<double>(n) *
            std::numeric_limits<double>::epsilon() * max_abs;
        perm.resize(n);
        for (size_t i = 0; i < n; ++i)
            perm[i] = i;
        for (size_t k = 0; k < n; ++k) {
            size_t pivot = k;
            double best = std::fabs(lu(k, k));
            for (size_t r = k + 1; r < n; ++r) {
                double mag = std::fabs(lu(r, k));
                if (mag > best) {
                    best = mag;
                    pivot = r;
                }
            }
            if (best <= pivot_tol) {
                singular_at = k;
                return;
            }
            if (pivot != k) {
                for (size_t c = 0; c < n; ++c)
                    std::swap(lu(k, c), lu(pivot, c));
                std::swap(perm[k], perm[pivot]);
            }
            const double diag = lu(k, k);
            for (size_t r = k + 1; r < n; ++r) {
                double factor = lu(r, k) / diag;
                lu(r, k) = factor;
                if (factor == 0.0)
                    continue;
                const double *row_k = lu.rowPtr(k);
                double *row_r = lu.rowPtr(r);
                for (size_t c = k + 1; c < n; ++c)
                    row_r[c] -= factor * row_k[c];
            }
        }
    }
};

Matrix
randomMatrix(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Matrix a(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
    return a;
}

/** Dominant anti-diagonal: pivoting swaps rows k and n-1-k for every
 *  k < n/2, so swaps cross every block boundary. */
Matrix
pivotForcingMatrix(size_t n, uint64_t seed)
{
    Matrix a = randomMatrix(n, seed);
    for (size_t r = 0; r < n; ++r)
        a(r, n - 1 - r) += 4.0 * static_cast<double>(n);
    return a;
}

/** Factors equal element for element (== : the blocked tiles may
 *  differ from the oracle's zero-multiplier skip in the sign of an
 *  exact zero, nothing else). */
void
expectSameFactors(const LuFactorization &lu, const OracleLu &oracle,
                  const char *what)
{
    ASSERT_FALSE(oracle.singular_at.has_value()) << what;
    EXPECT_EQ(lu.permutation(), oracle.perm) << what;
    const size_t n = lu.order();
    size_t differing = 0;
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            differing += lu.factors()(r, c) != oracle.lu(r, c);
    EXPECT_EQ(differing, 0u) << what << " n=" << n;
}

/** max |(PA - LU)_ij| / max |a_ij| from the packed factors. */
double
relativeResidual(const Matrix &a, const LuFactorization &lu)
{
    const size_t n = a.rows();
    const Matrix &f = lu.factors();
    double worst = 0.0;
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (size_t k = 0; k <= std::min(i, j); ++k)
                acc += (k == i ? 1.0 : f(i, k)) * f(k, j);
            worst = std::max(
                worst, std::fabs(a(lu.permutation()[i], j) - acc));
        }
    }
    return worst / a.maxAbs();
}

/** Executor splitting [0, count) into `grain`-sized chunks run in
 *  reverse order, to show chunk boundaries and order do not leak
 *  into the factors. */
struct ReverseChunks
{
    size_t grain;
    void operator()(size_t count, LuFactorization::RangeBody body) const
    {
        for (size_t end = count; end > 0;) {
            const size_t begin = end > grain ? end - grain : 0;
            body(begin, end);
            end = begin;
        }
    }
};

TEST(Lu, SolvesKnownSystem)
{
    // [2 1; 1 3] x = [3, 5] => x = [0.8, 1.4]
    Matrix a(2, 2);
    a(0, 0) = 2; a(0, 1) = 1;
    a(1, 0) = 1; a(1, 1) = 3;
    LuFactorization lu(a);
    std::vector<double> x = lu.solve({3.0, 5.0});
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, IdentitySolveReturnsRhs)
{
    LuFactorization lu(Matrix::identity(4));
    std::vector<double> b = {1, -2, 3, -4};
    std::vector<double> x = lu.solve(b);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(Lu, PivotingHandlesZeroDiagonal)
{
    // Leading zero forces a row swap.
    Matrix a(2, 2);
    a(0, 0) = 0; a(0, 1) = 1;
    a(1, 0) = 1; a(1, 1) = 0;
    LuFactorization lu(a);
    std::vector<double> x = lu.solve({2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RandomSystemsRoundTrip)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 1 + rng.below(30);
        Matrix a(n, n);
        for (size_t r = 0; r < n; ++r) {
            for (size_t c = 0; c < n; ++c)
                a(r, c) = rng.uniform(-1.0, 1.0);
            a(r, r) += 2.0; // keep well-conditioned
        }
        std::vector<double> x_true(n);
        for (auto &v : x_true)
            v = rng.uniform(-5.0, 5.0);
        std::vector<double> b = a.multiply(x_true);

        LuFactorization lu(a);
        std::vector<double> x = lu.solve(b);
        for (size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], x_true[i], 1e-8)
                << "trial " << trial << " i " << i;
    }
}

TEST(Lu, SolveMatrixInvertsIdentityRhs)
{
    Matrix a(3, 3);
    a(0, 0) = 4; a(0, 1) = 1; a(0, 2) = 0;
    a(1, 0) = 1; a(1, 1) = 3; a(1, 2) = 1;
    a(2, 0) = 0; a(2, 1) = 1; a(2, 2) = 2;
    LuFactorization lu(a);
    Matrix inv = lu.solveMatrix(Matrix::identity(3));
    // A * inv should be the identity.
    for (size_t r = 0; r < 3; ++r) {
        std::vector<double> col(3);
        for (size_t c = 0; c < 3; ++c) {
            for (size_t k = 0; k < 3; ++k)
                col[k] = inv(k, c);
            std::vector<double> product = a.multiply(col);
            EXPECT_NEAR(product[r], r == c ? 1.0 : 0.0, 1e-12);
        }
    }
}

TEST(Lu, DeterminantKnownValues)
{
    Matrix a(2, 2);
    a(0, 0) = 3; a(0, 1) = 8;
    a(1, 0) = 4; a(1, 1) = 6;
    LuFactorization lu(a);
    EXPECT_NEAR(lu.determinant(), -14.0, 1e-12);

    EXPECT_NEAR(LuFactorization(Matrix::identity(5)).determinant(),
                1.0, 1e-12);
}

TEST(Lu, SingularMatrixIsFatal)
{
    setAbortOnError(false);
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2;
    a(1, 0) = 2; a(1, 1) = 4; // rank 1
    EXPECT_THROW(LuFactorization lu(a), FatalError);
    setAbortOnError(true);
}

TEST(Lu, NonSquareIsFatal)
{
    setAbortOnError(false);
    EXPECT_THROW(LuFactorization lu(Matrix(2, 3)), FatalError);
    setAbortOnError(true);
}

TEST(Lu, NearSingularPivotIsCaughtByScaledTolerance)
{
    // Second pivot is 1e-17 — nonzero, but seventeen orders below
    // the matrix scale. An exact-zero test would accept it and
    // produce garbage; the scaled tolerance must reject it.
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(1, 1) = 1e-17;
    setAbortOnError(false);
    EXPECT_THROW(LuFactorization lu(a), FatalError);
    setAbortOnError(true);

    Result<LuFactorization> r = LuFactorization::tryFactor(a);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::SingularMatrix);
}

TEST(Lu, TryFactorReturnsErrorNotAbort)
{
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2;
    a(1, 0) = 2; a(1, 1) = 4; // rank 1
    Result<LuFactorization> r = LuFactorization::tryFactor(a);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::SingularMatrix);

    Result<LuFactorization> bad_shape =
        LuFactorization::tryFactor(Matrix(2, 3));
    ASSERT_FALSE(bad_shape.ok());
    EXPECT_EQ(bad_shape.error().code, ErrorCode::InvalidArgument);

    Matrix nan_matrix(2, 2, 1.0);
    nan_matrix(0, 1) = std::nan("");
    Result<LuFactorization> non_finite =
        LuFactorization::tryFactor(nan_matrix);
    ASSERT_FALSE(non_finite.ok());
    EXPECT_EQ(non_finite.error().code, ErrorCode::NonFinite);
}

TEST(Lu, TryFactorSolvesLikeConstructor)
{
    Matrix a(2, 2);
    a(0, 0) = 2; a(0, 1) = 1;
    a(1, 0) = 1; a(1, 1) = 3;
    Result<LuFactorization> r = LuFactorization::tryFactor(a);
    ASSERT_TRUE(r.ok());
    Result<std::vector<double>> x = r.value().trySolve({3.0, 5.0});
    ASSERT_TRUE(x.ok());
    EXPECT_NEAR(x.value()[0], 0.8, 1e-12);
    EXPECT_NEAR(x.value()[1], 1.4, 1e-12);
}

TEST(Lu, TrySolveRejectsBadRhs)
{
    LuFactorization lu(Matrix::identity(3));
    Result<std::vector<double>> wrong_size = lu.trySolve({1.0, 2.0});
    ASSERT_FALSE(wrong_size.ok());
    EXPECT_EQ(wrong_size.error().code, ErrorCode::InvalidArgument);

    Result<std::vector<double>> non_finite =
        lu.trySolve({1.0, std::nan(""), 3.0});
    ASSERT_FALSE(non_finite.ok());
    EXPECT_EQ(non_finite.error().code, ErrorCode::NonFinite);
}

TEST(Lu, SolveTransposedMatchesExplicitTranspose)
{
    Rng rng(7);
    const size_t n = 6;
    Matrix a(n, n);
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
        a(r, r) += 3.0;
    }
    std::vector<double> b(n);
    for (auto &v : b)
        v = rng.uniform(-2.0, 2.0);

    LuFactorization lu(a);
    std::vector<double> x = lu.solveTransposed(b);
    LuFactorization lu_t(a.transposed());
    std::vector<double> expected = lu_t.solve(b);
    for (size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], expected[i], 1e-10) << i;
}

TEST(Lu, ConditionEstimateWellConditioned)
{
    LuFactorization lu(Matrix::identity(8));
    EXPECT_NEAR(lu.reciprocalCondition(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(lu.norm1(), 1.0);
}

TEST(Lu, ConditionEstimateFlagsIllConditioned)
{
    // diag(1, 1e-13): condition number 1e13 exactly; Hager's
    // estimator is exact for diagonal matrices.
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(1, 1) = 1e-13;
    LuFactorization lu(a);
    double rcond = lu.reciprocalCondition();
    EXPECT_GT(rcond, 1e-14);
    EXPECT_LT(rcond, 1e-12);
}

TEST(Lu, ConditionEstimateTracksHilbert)
{
    // The 8x8 Hilbert matrix has kappa_1 ~ 3.4e10; the estimator
    // must land within a couple orders of magnitude.
    const size_t n = 8;
    Matrix h(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            h(r, c) = 1.0 / static_cast<double>(r + c + 1);
    LuFactorization lu(h);
    double rcond = lu.reciprocalCondition();
    EXPECT_GT(rcond, 1e-13);
    EXPECT_LT(rcond, 1e-8);
}

TEST(Lu, InjectedFactorFailure)
{
    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::LuFactor, 1);
    Result<LuFactorization> r =
        LuFactorization::tryFactor(Matrix::identity(2));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::FaultInjected);
    FaultInjector::instance().reset();

    // Disarmed, the same call succeeds.
    EXPECT_TRUE(LuFactorization::tryFactor(Matrix::identity(2)).ok());
}

TEST(Lu, InjectedSolveFailure)
{
    FaultInjector::instance().reset();
    LuFactorization lu(Matrix::identity(2));
    FaultInjector::instance().armCallFault(FaultSite::LuSolve, 2);
    EXPECT_TRUE(lu.trySolve({1.0, 2.0}).ok());
    Result<std::vector<double>> r = lu.trySolve({1.0, 2.0});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::FaultInjected);
    FaultInjector::instance().reset();
}

TEST(LuBlocked, BitIdenticalToOracleUpToOneBlock)
{
    for (size_t n = 1; n <= kBlock; ++n) {
        Matrix a = randomMatrix(n, 100 + n);
        expectSameFactors(LuFactorization(a), OracleLu(a), "random");
        Matrix p = pivotForcingMatrix(n, 200 + n);
        expectSameFactors(LuFactorization(p), OracleLu(p), "pivoting");
    }
}

TEST(LuBlocked, AgreesWithOracleAcrossBlockBoundaries)
{
    for (size_t n : {kBlock - 1, kBlock, kBlock + 1, 2 * kBlock + 3,
                     size_t{300}}) {
        for (bool forcing : {false, true}) {
            Matrix a = forcing ? pivotForcingMatrix(n, 300 + n)
                               : randomMatrix(n, 400 + n);
            const char *what = forcing ? "pivoting" : "random";
            LuFactorization lu(a);
            OracleLu oracle(a);
            expectSameFactors(lu, oracle, what);
            EXPECT_LE(relativeResidual(a, lu), 1e-12)
                << what << " n=" << n;

            // Solutions agree with the oracle's forward/back solve.
            Rng rng(500 + n);
            std::vector<double> b(n);
            for (double &v : b)
                v = rng.uniform(-1.0, 1.0);
            std::vector<double> x = lu.solve(b);
            std::vector<double> y(n);
            for (size_t i = 0; i < n; ++i) {
                double acc = b[oracle.perm[i]];
                for (size_t j = 0; j < i; ++j)
                    acc -= oracle.lu(i, j) * y[j];
                y[i] = acc;
            }
            for (size_t i = n; i-- > 0;) {
                double acc = y[i];
                for (size_t j = i + 1; j < n; ++j)
                    acc -= oracle.lu(i, j) * y[j];
                y[i] = acc / oracle.lu(i, i);
            }
            double x_max = 0.0, dev = 0.0;
            for (size_t i = 0; i < n; ++i) {
                x_max = std::max(x_max, std::fabs(y[i]));
                dev = std::max(dev, std::fabs(x[i] - y[i]));
            }
            EXPECT_LE(dev, 1e-12 * x_max) << what << " n=" << n;
            // A x reproduces b.
            std::vector<double> ax = a.multiply(x);
            double res = 0.0;
            for (size_t i = 0; i < n; ++i)
                res = std::max(res, std::fabs(ax[i] - b[i]));
            EXPECT_LE(res, 1e-12 * a.maxAbs() * x_max * n)
                << what << " n=" << n;
        }
    }
}

TEST(LuBlocked, SingularPivotInLaterBlockReportsItsIndex)
{
    // An all-zero column stays exactly zero through every update, so
    // the pivot test must fire at that column and nowhere earlier.
    const size_t n = 2 * kBlock + 3;
    const size_t zero_col = kBlock + 5;
    Matrix a = randomMatrix(n, 600);
    for (size_t r = 0; r < n; ++r)
        a(r, zero_col) = 0.0;
    ASSERT_EQ(OracleLu(a).singular_at, zero_col);

    Result<LuFactorization> r = LuFactorization::tryFactor(a);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::SingularMatrix);
    EXPECT_NE(r.error().message.find(
                  "pivot " + std::to_string(zero_col) + " "),
              std::string::npos)
        << r.error().message;
}

TEST(LuBlocked, SingularMessagePrintsPivotAndTolerance)
{
    // Both magnitudes are far below 1e-6; fixed-point formatting
    // would print them as 0.000000.
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(1, 1) = 1e-17;
    Result<LuFactorization> r = LuFactorization::tryFactor(a);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::SingularMatrix);
    EXPECT_EQ(r.error().message,
              "singular matrix (pivot 1 magnitude 1e-17 below "
              "tolerance 4.44089e-16)");
}

TEST(LuBlocked, InjectedFactorFailureWithExecutor)
{
    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::LuFactor, 1);
    Result<LuFactorization> r = LuFactorization::tryFactor(
        randomMatrix(2 * kBlock + 3, 700), ReverseChunks{8});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::FaultInjected);
    FaultInjector::instance().reset();
}

TEST(LuBlocked, FactorsBitIdenticalAcrossExecutorsAndPoolSizes)
{
    const size_t n = 300;
    for (bool forcing : {false, true}) {
        Matrix a = forcing ? pivotForcingMatrix(n, 800)
                           : randomMatrix(n, 801);
        const LuFactorization serial(a);
        auto expectBitIdentical = [&](const LuFactorization &lu,
                                      const std::string &what) {
            EXPECT_EQ(lu.permutation(), serial.permutation()) << what;
            EXPECT_EQ(std::memcmp(lu.factors().rowPtr(0),
                                  serial.factors().rowPtr(0),
                                  n * n * sizeof(double)),
                      0)
                << what;
        };
        expectBitIdentical(LuFactorization(a, ReverseChunks{7}),
                           "reverse chunks of 7");
        for (unsigned threads : {1u, 2u, 4u}) {
            exec::ThreadPool pool(threads);
            auto on_pool = [&pool](size_t count,
                                   LuFactorization::RangeBody body) {
                exec::parallelFor(pool, count, body, 16);
            };
            expectBitIdentical(LuFactorization(a, on_pool),
                               std::to_string(threads) + " threads");
        }
    }
}

} // anonymous namespace
} // namespace nanobus
