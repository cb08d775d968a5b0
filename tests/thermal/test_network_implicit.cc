/**
 * @file
 * Implicit-solver path of ThermalNetwork (ISSUE 9): solver selection,
 * Jacobian assembly, implicit-vs-RK4-vs-steadyState equivalence, the
 * advanceChecked fault semantics on the implicit path, and the
 * stability-bound/reset contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "thermal/network.hh"
#include "util/faultinject.hh"

namespace nanobus {
namespace {

const double ambient = 318.15;

ThermalConfig
solverConfig(ThermalSolver solver, StackMode stack = StackMode::None)
{
    ThermalConfig config;
    config.stack_mode = stack;
    config.solver = solver;
    if (stack != StackMode::None)
        config.delta_theta = Kelvin{12.0};
    return config;
}

TEST(ThermalSolverSelect, NamesRoundTrip)
{
    EXPECT_STREQ(thermalSolverName(ThermalSolver::Rk4), "rk4");
    EXPECT_STREQ(thermalSolverName(ThermalSolver::BackwardEuler),
                 "backward-euler");
    EXPECT_STREQ(thermalSolverName(ThermalSolver::Trapezoidal),
                 "trapezoidal");
    for (ThermalSolver s : {ThermalSolver::Rk4,
                            ThermalSolver::BackwardEuler,
                            ThermalSolver::Trapezoidal})
        EXPECT_EQ(parseThermalSolver(thermalSolverName(s)), s);
    EXPECT_EQ(parseThermalSolver("be"), ThermalSolver::BackwardEuler);
    EXPECT_EQ(parseThermalSolver("cn"), ThermalSolver::Trapezoidal);
    EXPECT_FALSE(parseThermalSolver("euler").has_value());
}

TEST(ThermalSolverSelect, ConfigSelectsSolver)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalNetwork rk4(tech, 4,
                       solverConfig(ThermalSolver::Rk4));
    ThermalNetwork be(tech, 4,
                      solverConfig(ThermalSolver::BackwardEuler));
    EXPECT_EQ(rk4.solver(), ThermalSolver::Rk4);
    EXPECT_EQ(be.solver(), ThermalSolver::BackwardEuler);
}

/** Eqs 3-4 written out node by node (the paper's form), for a
 *  state `theta` (wires, then the stack node in Dynamic mode). */
std::vector<double>
eqs3And4(const ThermalNetwork &net, const std::vector<double> &theta,
         const std::vector<double> &power)
{
    const ThermalConfig &config = net.config();
    const WireThermalParams &p = net.wireParams();
    const double r_self = p.selfResistance().raw();
    const double r_lat = p.lateralResistance().raw();
    const double c = p.capacitance().raw();
    const unsigned n = net.numWires();
    const bool dyn = config.stack_mode == StackMode::Dynamic;
    double ref = config.ambient.raw();
    if (config.stack_mode == StackMode::Static)
        ref += config.delta_theta.raw();
    if (dyn)
        ref = theta[n];

    std::vector<double> dtheta(theta.size());
    double into_stack = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        const double downward = (theta[i] - ref) / r_self;
        double lateral = 0.0;
        if (config.lateral_coupling) {
            if (i > 0)
                lateral += (theta[i] - theta[i - 1]) / r_lat;
            if (i + 1 < n)
                lateral += (theta[i] - theta[i + 1]) / r_lat;
        }
        dtheta[i] = (power[i] - downward - lateral) / c;
        into_stack += downward;
    }
    if (dyn) {
        const double r_stack = config.stack_resistance.raw();
        const double c_stack =
            config.stack_time_constant.raw() / r_stack;
        const double p_lower = config.delta_theta.raw() / r_stack;
        const double to_ambient =
            (theta[n] - config.ambient.raw()) / r_stack;
        dtheta[n] = (p_lower + into_stack - to_ambient) / c_stack;
    }
    return dtheta;
}

// Every solver integrates dθ/dt = A θ + b through the assembled
// jacobian() and forcing(); at a skewed state (heat moving through
// every coupling) that must be exactly the paper's Eqs 3-4.
TEST(ThermalSolverSelect, JacobianAndForcingMatchEqs3And4)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (StackMode mode : {StackMode::None, StackMode::Static,
                           StackMode::Dynamic}) {
        for (bool lateral : {true, false}) {
            ThermalConfig config = solverConfig(ThermalSolver::Rk4, mode);
            config.lateral_coupling = lateral;
            const unsigned width = 7;
            ThermalNetwork net(tech, width, config);
            std::vector<double> theta(net.jacobian().order());
            for (size_t i = 0; i < theta.size(); ++i)
                theta[i] = ambient + 3.0 * static_cast<double>(i % 4) + 1.0;
            const std::vector<double> power = {0.2, 0.0, 0.9, 0.4,
                                               0.0, 0.6, 0.3};

            std::vector<double> a_theta;
            net.jacobian().multiply(theta, a_theta);
            const std::vector<double> b = net.forcing(power);
            const std::vector<double> expect =
                eqs3And4(net, theta, power);
            double scale = 0.0;
            for (double d : expect)
                scale = std::max(scale, std::fabs(d));
            ASSERT_GT(scale, 0.0);
            for (size_t i = 0; i < theta.size(); ++i) {
                EXPECT_NEAR(a_theta[i] + b[i], expect[i], 1e-9 * scale)
                    << "mode " << static_cast<int>(mode) << " lateral "
                    << lateral << " node " << i;
            }
        }
    }
}

// The implicit path must reproduce the RK4 trajectory. A
// deliberately *skewed* initial state (every node at a different
// temperature) drives heat through every coupling, so a wrong step
// operator diverges the implicit path from the RK4 oracle
// immediately.
TEST(ThermalSolverSelect, JacobianReproducesDynamicsFromSkewedState)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (StackMode mode : {StackMode::None, StackMode::Static,
                           StackMode::Dynamic}) {
        ThermalConfig config =
            solverConfig(ThermalSolver::Trapezoidal, mode);
        config.implicit_steps = 256;  // resolve the wire dynamics
        const unsigned width = 6;
        ThermalNetwork net(tech, width, config);
        const BandedMatrix &a = net.jacobian();
        EXPECT_EQ(a.hasBorder(), mode == StackMode::Dynamic);
        EXPECT_EQ(a.order(),
                  width + (mode == StackMode::Dynamic ? 1u : 0u));

        ThermalConfig rk = config;
        rk.solver = ThermalSolver::Rk4;
        ThermalNetwork oracle(tech, width, rk);

        ThermalNetwork::SnapshotState skew;
        skew.nodes.resize(a.order());
        for (size_t i = 0; i < skew.nodes.size(); ++i)
            skew.nodes[i] =
                ambient + 3.0 * static_cast<double>(i % 4) + 1.0;
        ASSERT_TRUE(net.restoreSnapshotState(skew).ok());
        ASSERT_TRUE(oracle.restoreSnapshotState(skew).ok());

        std::vector<double> power = {0.2, 0.0, 0.9, 0.4, 0.0, 0.6};
        const double tau =
            net.wireParams().timeConstant().raw();  // mid-transient
        net.advance(power, Seconds{tau});
        oracle.advance(power, Seconds{tau});
        for (unsigned i = 0; i < width; ++i) {
            EXPECT_NEAR(net.temperature(i).raw(),
                        oracle.temperature(i).raw(), 2e-3)
                << "mode " << static_cast<int>(mode) << " wire " << i;
        }
        if (mode == StackMode::Dynamic) {
            EXPECT_NEAR(net.stackTemperature().raw(),
                        oracle.stackTemperature().raw(), 2e-3);
        }
    }
}

// Tentpole equivalence gate (mirrored in bench/perf_thermal): both
// implicit methods land on the same steady state as the RK4 oracle
// and as the direct conductance solve, within 1e-6 K relative.
TEST(ThermalSolverSelect, ImplicitSteadyStateMatchesRk4AndDirect)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (StackMode mode : {StackMode::None, StackMode::Dynamic}) {
        std::vector<double> power = {0.1, 0.6, 0.3, 0.9, 0.2};
        // Long enough to saturate the slowest mode (the stack node's
        // 20 ms time constant in Dynamic mode).
        const double horizon = mode == StackMode::Dynamic ? 0.4 : 1e-3;
        const unsigned intervals = 32;

        std::vector<std::vector<double>> finals;
        for (ThermalSolver s : {ThermalSolver::Rk4,
                                ThermalSolver::BackwardEuler,
                                ThermalSolver::Trapezoidal}) {
            ThermalConfig config = solverConfig(s, mode);
            ThermalNetwork net(tech, 5, config);
            net.reset(Kelvin{ambient});
            for (unsigned k = 0; k < intervals; ++k)
                net.advance(power,
                            Seconds{horizon /
                                    static_cast<double>(intervals)});
            finals.push_back(net.temperatures());
        }
        ThermalNetwork direct(tech, 5,
                              solverConfig(ThermalSolver::Rk4, mode));
        std::vector<double> ss = direct.steadyState(power);

        for (size_t s = 0; s < finals.size(); ++s) {
            for (unsigned i = 0; i < 5; ++i) {
                EXPECT_NEAR(finals[s][i], ss[i], 1e-6 * ss[i])
                    << "solver " << s << " wire " << i << " mode "
                    << static_cast<int>(mode);
            }
        }
    }
}

// Transient (not just steady-state) agreement: over a horizon
// resolving the wire dynamics, trapezoidal tracks the RK4 oracle
// closely and backward Euler tracks it to first order.
TEST(ThermalSolverSelect, ImplicitTransientTracksRk4)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    std::vector<double> power = {0.0, 1.0, 0.0};
    const double tau =
        ThermalNetwork(tech, 3, solverConfig(ThermalSolver::Rk4))
            .wireParams()
            .timeConstant()
            .raw();

    auto run = [&](ThermalSolver s, unsigned steps) {
        ThermalConfig config = solverConfig(s);
        config.implicit_steps = steps;
        ThermalNetwork net(tech, 3, config);
        net.reset(Kelvin{ambient});
        net.advance(power, Seconds{tau});  // mid-transient
        return net.temperatures();
    };

    std::vector<double> rk4 = run(ThermalSolver::Rk4, 4);
    std::vector<double> cn = run(ThermalSolver::Trapezoidal, 16);
    std::vector<double> be = run(ThermalSolver::BackwardEuler, 16);
    const double rise = rk4[1] - ambient;
    ASSERT_GT(rise, 0.0);
    for (unsigned i = 0; i < 3; ++i) {
        // Second-order CN tracks tightly at dt = tau/16; first-order
        // BE carries an O(dt/tau) lag.
        EXPECT_NEAR(cn[i], rk4[i], 0.01 * rise) << "wire " << i;
        EXPECT_NEAR(be[i], rk4[i], 0.10 * rise) << "wire " << i;
    }
}

TEST(ThermalSolverSelect, ImplicitAdvanceCheckedContainsSolveFault)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = solverConfig(ThermalSolver::BackwardEuler);
    ThermalNetwork net(tech, 3, config);
    net.reset(Kelvin{ambient});

    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::LuSolve, 2);
    std::vector<ThermalFault> faults =
        net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6});
    FaultInjector::instance().reset();

    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].kind, ThermalFault::Kind::NonFinite);
    // The network is contained and stays usable.
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(std::isfinite(net.temperature(i).raw()));
    EXPECT_TRUE(
        net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6}).empty());
}

TEST(ThermalSolverSelect, ImplicitAdvanceCheckedContainsFactorFault)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = solverConfig(ThermalSolver::Trapezoidal);
    ThermalNetwork net(tech, 3, config);
    net.reset(Kelvin{ambient});

    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::LuFactor, 1);
    std::vector<ThermalFault> faults =
        net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6});
    FaultInjector::instance().reset();

    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].kind, ThermalFault::Kind::NonFinite);
    // The poisoned factorization was not cached: the retry refactors.
    EXPECT_TRUE(
        net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6}).empty());
}

// Satellite (b): the stability-bound contract. The derived step must
// sit inside RK4's stability interval, and reset() revalidates it.
TEST(ThermalSolverSelect, DerivedStepRespectsStabilityBound)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config =
        solverConfig(ThermalSolver::Rk4, StackMode::Dynamic);
    ThermalNetwork net(tech, 8, config);
    const double dt = net.stepWidth().raw();
    ASSERT_GT(dt, 0.0);

    // Recompute the stiffest time constant independently from the
    // published parameters (ThermalConfig::max_dt documentation) and
    // check both the documented 0.2 tau_min derivation and the
    // Gershgorin stability requirement 2 dt / tau_min < 2.785.
    const WireThermalParams &p = net.wireParams();
    const double g_wire = 1.0 / p.selfResistance().raw() +
        2.0 / p.lateralResistance().raw();
    double tau_min = p.capacitance().raw() / g_wire;
    const double c_stack = (config.stack_time_constant /
                            config.stack_resistance).raw();
    const double g_stack = 1.0 / config.stack_resistance.raw() +
        8.0 / p.selfResistance().raw();
    tau_min = std::min(tau_min, c_stack / g_stack);

    EXPECT_NEAR(dt, 0.2 * tau_min, 1e-12 * tau_min);
    EXPECT_LT(2.0 * dt / tau_min, 2.785);

    // reset() revalidates the derivation (a contract violation would
    // panic in checked builds); the step must not drift.
    net.reset(Kelvin{ambient});
    EXPECT_DOUBLE_EQ(net.stepWidth().raw(), dt);
}

TEST(ThermalSolverSelect, UserStepCeilingIsTakenAsIs)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = solverConfig(ThermalSolver::Rk4);
    config.max_dt = Seconds{1e-9};
    ThermalNetwork net(tech, 2, config);
    EXPECT_DOUBLE_EQ(net.stepWidth().raw(), 1e-9);
    net.reset(Kelvin{ambient});  // no derived-step revalidation
    EXPECT_DOUBLE_EQ(net.stepWidth().raw(), 1e-9);
}

TEST(ThermalSolverSelect, SnapshotRoundTripsOnImplicitPath)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config =
        solverConfig(ThermalSolver::BackwardEuler, StackMode::Dynamic);
    ThermalNetwork a(tech, 4, config);
    a.reset(Kelvin{ambient});
    std::vector<double> power = {0.3, 0.1, 0.7, 0.2};
    EXPECT_TRUE(a.advanceChecked(power, Seconds{1e-4}).empty());

    ThermalNetwork b(tech, 4, config);
    ASSERT_TRUE(b.restoreSnapshotState(a.snapshotState()).ok());

    // Bit-identical continuation: same advances, same bits.
    for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(a.advanceChecked(power, Seconds{1e-4}).empty());
        EXPECT_TRUE(b.advanceChecked(power, Seconds{1e-4}).empty());
    }
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(a.temperature(i).raw(), b.temperature(i).raw())
            << "wire " << i;
    EXPECT_EQ(a.stackTemperature().raw(), b.stackTemperature().raw());
}

} // anonymous namespace
} // namespace nanobus
