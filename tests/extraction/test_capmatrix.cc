/**
 * @file
 * Tests for the CapacitanceMatrix abstraction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "extraction/bem.hh"
#include "extraction/capmatrix.hh"
#include "extraction/geometry.hh"
#include "tech/technology.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"

namespace nanobus {
namespace {

TEST(CapMatrix, FromMaxwellConversion)
{
    // Maxwell: diag total, off-diag negative couplings.
    Matrix m(3, 3);
    m(0, 0) = 5; m(0, 1) = -2; m(0, 2) = -1;
    m(1, 0) = -2; m(1, 1) = 6; m(1, 2) = -2;
    m(2, 0) = -1; m(2, 1) = -2; m(2, 2) = 5;
    CapacitanceMatrix cm = CapacitanceMatrix::fromMaxwell(m);
    EXPECT_DOUBLE_EQ(cm.coupling(0, 1).raw(), 2.0);
    EXPECT_DOUBLE_EQ(cm.coupling(0, 2).raw(), 1.0);
    EXPECT_DOUBLE_EQ(cm.coupling(1, 2).raw(), 2.0);
    // Ground = row sum.
    EXPECT_DOUBLE_EQ(cm.ground(0).raw(), 2.0);
    EXPECT_DOUBLE_EQ(cm.ground(1).raw(), 2.0);
    EXPECT_DOUBLE_EQ(cm.ground(2).raw(), 2.0);
    // Total = ground + couplings = diagonal.
    EXPECT_DOUBLE_EQ(cm.total(0).raw(), 5.0);
    EXPECT_DOUBLE_EQ(cm.total(1).raw(), 6.0);
}

TEST(CapMatrix, FromMaxwellClampsPositiveOffDiagonals)
{
    Matrix m(2, 2);
    m(0, 0) = 3; m(0, 1) = 1e-20; // numerical noise, wrong sign
    m(1, 0) = 1e-20; m(1, 1) = 3;
    CapacitanceMatrix cm = CapacitanceMatrix::fromMaxwell(m);
    EXPECT_DOUBLE_EQ(cm.coupling(0, 1).raw(), 0.0);
}

TEST(CapMatrix, CouplingIsSymmetric)
{
    CapacitanceMatrix cm(4);
    cm.setCoupling(1, 3, FaradsPerMeter{7.5});
    EXPECT_DOUBLE_EQ(cm.coupling(3, 1).raw(), 7.5);
}

TEST(CapMatrix, SelfCouplingIsZero)
{
    CapacitanceMatrix cm(3);
    EXPECT_DOUBLE_EQ(cm.coupling(1, 1).raw(), 0.0);
}

TEST(CapMatrix, AnalyticalMatchesTable1Anchors)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    CapacitanceMatrix cm = CapacitanceMatrix::analytical(tech, 32);
    EXPECT_EQ(cm.size(), 32u);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(cm.ground(i).raw(), tech.c_line.raw());
    EXPECT_DOUBLE_EQ(cm.coupling(10, 11).raw(), tech.c_inter.raw());
    EXPECT_DOUBLE_EQ(cm.coupling(10, 9).raw(), tech.c_inter.raw());
}

TEST(CapMatrix, AnalyticalNonAdjacentDecays)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    CapacitanceMatrix cm = CapacitanceMatrix::analytical(tech, 32);
    double c1 = cm.coupling(10, 11).raw();
    double c2 = cm.coupling(10, 12).raw();
    double c3 = cm.coupling(10, 13).raw();
    double c4 = cm.coupling(10, 14).raw();
    double c5 = cm.coupling(10, 15).raw();
    EXPECT_GT(c2, c3);
    EXPECT_GT(c3, c4);
    EXPECT_GT(c4, c5);
    EXPECT_NEAR(c2 / c1, 0.090, 1e-12);
    EXPECT_NEAR(c3 / c1, 0.030, 1e-12);
    // Beyond the ratio table the decay continues geometrically.
    EXPECT_NEAR(c5 / c4, c4 / c3, 1e-9);
}

TEST(CapMatrix, DistributionFractionsSumToOne)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm90);
    CapacitanceMatrix cm = CapacitanceMatrix::analytical(tech, 32);
    for (unsigned i : {0u, 1u, 15u, 31u}) {
        auto d = cm.distribution(i);
        EXPECT_NEAR(d.cgnd + d.cc1 + d.cc2 + d.cc3 + d.ccrest, 1.0,
                    1e-12);
    }
}

TEST(CapMatrix, AnalyticalDistributionMatchesFig1b)
{
    // Fig 1(b): non-adjacent coupling is ~8-10% of the total for a
    // centre wire across the ITRS nodes.
    for (ItrsNode id : allItrsNodes()) {
        const TechnologyNode &tech = itrsNode(id);
        CapacitanceMatrix cm = CapacitanceMatrix::analytical(tech, 32);
        auto d = cm.distribution(15);
        EXPECT_GT(d.nonAdjacent(), 0.04) << tech.name;
        EXPECT_LT(d.nonAdjacent(), 0.15) << tech.name;
        EXPECT_GT(d.cc1, d.cgnd) << tech.name; // coupling dominates
    }
}

TEST(CapMatrix, EdgeWireHasLessCouplingThanCentre)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    CapacitanceMatrix cm = CapacitanceMatrix::analytical(tech, 8);
    // Edge wire has one adjacent neighbor, centre has two.
    auto edge = cm.distribution(0);
    auto centre = cm.distribution(4);
    EXPECT_LT(edge.cc1, centre.cc1);
}

TEST(CapMatrix, CalibrationAnchorsCentreWire)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm65);
    // Build an arbitrary-scale matrix and calibrate it.
    CapacitanceMatrix raw(5);
    for (unsigned i = 0; i < 5; ++i)
        raw.setGround(i, FaradsPerMeter{3.0 + 0.1 * i});
    for (unsigned i = 0; i + 1 < 5; ++i)
        raw.setCoupling(i, i + 1, FaradsPerMeter{10.0});
    raw.setCoupling(0, 2, FaradsPerMeter{1.0});

    CapacitanceMatrix cal = raw.calibratedTo(tech);
    EXPECT_DOUBLE_EQ(cal.ground(2).raw(), tech.c_line.raw());
    EXPECT_DOUBLE_EQ(cal.coupling(2, 3).raw(), tech.c_inter.raw());
    // Shape preserved: non-adjacent scales by the same factor.
    EXPECT_NEAR(cal.coupling(0, 2).raw() / cal.coupling(0, 1).raw(), 0.1, 1e-12);
    // Per-wire ground variations preserved proportionally.
    EXPECT_NEAR(cal.ground(0).raw() / cal.ground(2).raw(), 3.0 / 3.2, 1e-12);
}

TEST(CapMatrix, SettersRejectNegative)
{
    setAbortOnError(false);
    CapacitanceMatrix cm(3);
    EXPECT_THROW(cm.setGround(0, FaradsPerMeter{-1.0}), FatalError);
    EXPECT_THROW(cm.setCoupling(0, 1, FaradsPerMeter{-1.0}), FatalError);
    EXPECT_THROW(cm.setCoupling(1, 1, FaradsPerMeter{1.0}), FatalError);
    setAbortOnError(true);
}

namespace {

Matrix
healthyMaxwell3()
{
    Matrix m(3, 3);
    m(0, 0) = 5; m(0, 1) = -2; m(0, 2) = -1;
    m(1, 0) = -2; m(1, 1) = 6; m(1, 2) = -2;
    m(2, 0) = -1; m(2, 1) = -2; m(2, 2) = 5;
    return m;
}

} // anonymous namespace

TEST(CapMatrixValidation, CleanMatrixPassesWithoutWarnings)
{
    MaxwellValidation validation;
    Result<CapacitanceMatrix> r =
        CapacitanceMatrix::tryFromMaxwell(healthyMaxwell3(),
                                          &validation);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(validation.warnings.empty());
    EXPECT_FALSE(validation.symmetrized);
    EXPECT_EQ(validation.dominance_violations, 0u);
    EXPECT_GT(validation.rcond, 1e-3);
    EXPECT_DOUBLE_EQ(r.value().coupling(0, 1).raw(), 2.0);
    EXPECT_DOUBLE_EQ(r.value().ground(1).raw(), 2.0);
}

TEST(CapMatrixValidation, PerturbedMatrixIsRepairedAndFlagged)
{
    // A fault-injected perturbation breaks the BEM symmetry; the
    // validator must repair by averaging and say so.
    Matrix m = healthyMaxwell3();
    FaultInjector::perturbEntries(m.rowPtr(0), 9, 0.05, 1234);
    ASSERT_GT(m.asymmetry(), 0.0);

    MaxwellValidation validation;
    Result<CapacitanceMatrix> r =
        CapacitanceMatrix::tryFromMaxwell(m, &validation);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(validation.symmetrized);
    EXPECT_GT(validation.max_asymmetry, 0.0);
    ASSERT_FALSE(validation.warnings.empty());
    // Repaired couplings are the symmetrized averages.
    EXPECT_NEAR(r.value().coupling(0, 1).raw(),
                -0.5 * (m(0, 1) + m(1, 0)), 1e-12);
}

TEST(CapMatrixValidation, BemAsymmetryStaysWithinMeasuredBound)
{
    // The collocation asymmetry of healthy extractions at the bus
    // widths the paper's encodings produce, at the default panel
    // density: the measured ceiling a symmetry warning threshold
    // must sit above for the warning to flag only bad input.
    for (unsigned width : {32u, 33u, 34u}) {
        SCOPED_TRACE(testing::Message() << "width=" << width);
        const Matrix m = BemExtractor(BusGeometry::forTechnology(
                                          itrsNode(ItrsNode::Nm130),
                                          width))
                             .solveMaxwell();
        double max_abs = 0.0;
        for (size_t i = 0; i < m.rows(); ++i)
            for (size_t j = 0; j < m.cols(); ++j)
                max_abs = std::max(max_abs, std::fabs(m(i, j)));
        MaxwellValidation validation;
        ASSERT_TRUE(CapacitanceMatrix::tryFromMaxwell(m, &validation)
                        .ok());
        EXPECT_EQ(validation.max_asymmetry, m.asymmetry());
        EXPECT_LE(validation.max_asymmetry, 1e-6 * max_abs);
        EXPECT_EQ(validation.dominance_violations, 0u);
    }
}

TEST(CapMatrixValidation, IllConditionedMatrixWarnsOnRcond)
{
    Matrix m(2, 2);
    m(0, 0) = 5.0;
    m(1, 1) = 5e-14; // condition number 1e13
    MaxwellValidation validation;
    Result<CapacitanceMatrix> r =
        CapacitanceMatrix::tryFromMaxwell(m, &validation);
    ASSERT_TRUE(r.ok()); // degraded, not rejected
    EXPECT_LT(validation.rcond, 1e-12);
    bool mentioned = false;
    for (const std::string &w : validation.warnings)
        mentioned = mentioned ||
            w.find("ill-conditioned") != std::string::npos;
    EXPECT_TRUE(mentioned);
}

TEST(CapMatrixValidation, SingularMatrixGetsZeroRcond)
{
    Matrix m(2, 2);
    m(0, 0) = 3; m(0, 1) = -3;
    m(1, 0) = -3; m(1, 1) = 3; // rank 1
    MaxwellValidation validation;
    Result<CapacitanceMatrix> r =
        CapacitanceMatrix::tryFromMaxwell(m, &validation);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(validation.rcond, 0.0);
    EXPECT_FALSE(validation.warnings.empty());
}

TEST(CapMatrixValidation, DominanceViolationsAreCounted)
{
    Matrix m = healthyMaxwell3();
    m(1, 1) = 3.5; // row sum becomes -0.5
    MaxwellValidation validation;
    Result<CapacitanceMatrix> r =
        CapacitanceMatrix::tryFromMaxwell(m, &validation);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(validation.dominance_violations, 1u);
    EXPECT_DOUBLE_EQ(r.value().ground(1).raw(), 0.0); // clamped
}

TEST(CapMatrixValidation, RejectsStructurallyBrokenInput)
{
    Result<CapacitanceMatrix> non_square =
        CapacitanceMatrix::tryFromMaxwell(Matrix(2, 3));
    ASSERT_FALSE(non_square.ok());
    EXPECT_EQ(non_square.error().code, ErrorCode::InvalidArgument);

    Matrix nan_matrix = healthyMaxwell3();
    nan_matrix(2, 0) = std::nan("");
    Result<CapacitanceMatrix> non_finite =
        CapacitanceMatrix::tryFromMaxwell(nan_matrix);
    ASSERT_FALSE(non_finite.ok());
    EXPECT_EQ(non_finite.error().code, ErrorCode::NonFinite);
}

} // anonymous namespace
} // namespace nanobus
