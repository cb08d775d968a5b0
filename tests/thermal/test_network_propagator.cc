/**
 * @file
 * The RK4 interval propagator of ThermalNetwork: for networks of up
 * to 128 nodes an RK4 interval is y* + Phi (y_0 - y*) with
 * Phi = R(hA)^n, which must reproduce n stepped RK4 steps over the
 * same A and b. Also pins the fault contract (one FaultSite::Rk4Step
 * call per propagated interval, stepped fallback), the divergence
 * guard under an unstable user step, and bit-identical resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "thermal/network.hh"
#include "util/faultinject.hh"

namespace nanobus {
namespace {

const double ambient = 318.15;

/** Node cap below which RK4 propagates (kPropagatorMaxNodes). */
constexpr unsigned kCapNodes = 128;

ThermalConfig
rk4Config(StackMode stack, bool lateral)
{
    ThermalConfig config;
    config.stack_mode = stack;
    config.lateral_coupling = lateral;
    if (stack != StackMode::None)
        config.delta_theta = Kelvin{12.0};
    return config;
}

unsigned
nodesFor(unsigned wires, StackMode stack)
{
    return wires + (stack == StackMode::Dynamic ? 1u : 0u);
}

/** Per-wire power [W/m] varying across the bus. */
std::vector<double>
wirePower(unsigned wires)
{
    std::vector<double> power(wires);
    for (unsigned i = 0; i < wires; ++i)
        power[i] = 0.2 + 0.15 * static_cast<double>((i * 7) % 5);
    return power;
}

/** Every node at a different temperature, so heat moves through
 *  every coupling of A. */
ThermalNetwork::SnapshotState
skewedState(unsigned nodes)
{
    ThermalNetwork::SnapshotState s;
    s.nodes.resize(nodes);
    for (unsigned i = 0; i < nodes; ++i)
        s.nodes[i] = ambient + 3.0 * static_cast<double>(i % 4) + 1.0;
    return s;
}

/** Stepped RK4 over the network's own A and b: the oracle every
 *  propagated interval must reproduce. */
std::vector<double>
steppedOracle(const ThermalNetwork &net, std::vector<double> y,
              const std::vector<double> &power, double duration)
{
    const BandedMatrix &a = net.jacobian();
    const std::vector<double> b = net.forcing(power);
    auto deriv = [&](double, const std::vector<double> &x,
                     std::vector<double> &dxdt) {
        a.multiply(x, dxdt);
        for (size_t i = 0; i < dxdt.size(); ++i)
            dxdt[i] += b[i];
    };
    Rk4Solver solver(y.size());
    solver.integrate(deriv, 0.0, duration, net.stepWidth().raw(), y);
    return y;
}

/** Largest node deviation as a fraction of the oracle's largest
 *  change over the interval. */
double
deviationOfRise(const std::vector<double> &probe,
                const std::vector<double> &oracle,
                const std::vector<double> &initial)
{
    double dev = 0.0, rise = 0.0;
    for (size_t i = 0; i < oracle.size(); ++i) {
        dev = std::max(dev, std::fabs(probe[i] - oracle[i]));
        rise = std::max(rise, std::fabs(oracle[i] - initial[i]));
    }
    return rise > 0.0 ? dev / rise
                      : std::numeric_limits<double>::infinity();
}

/** An interval of exactly `steps` RK4 steps: ceil(duration/dt). */
double
durationOfSteps(const ThermalNetwork &net, size_t steps)
{
    return (static_cast<double>(steps) - 0.5) * net.stepWidth().raw();
}

TEST(ThermalPropagator, MatchesSteppedOracle)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (StackMode mode : {StackMode::None, StackMode::Static,
                           StackMode::Dynamic}) {
        // Widths 1, 2 and the paper's 33 wires, then the node cap
        // and one node past it (the stepped path).
        const unsigned border = nodesFor(0, mode);
        for (unsigned wires : {1u, 2u, 33u, kCapNodes - border,
                               kCapNodes + 1 - border}) {
            for (bool lateral : {true, false}) {
                for (size_t steps : {size_t{1}, size_t{23},
                                     size_t{1119}}) {
                    SCOPED_TRACE("mode " +
                                 std::to_string(static_cast<int>(mode)) +
                                 " wires " + std::to_string(wires) +
                                 " lateral " + std::to_string(lateral) +
                                 " steps " + std::to_string(steps));
                    ThermalNetwork net(tech, wires,
                                       rk4Config(mode, lateral));
                    const ThermalNetwork::SnapshotState start =
                        skewedState(nodesFor(wires, mode));
                    ASSERT_TRUE(net.restoreSnapshotState(start).ok());
                    const std::vector<double> power = wirePower(wires);
                    const double duration = durationOfSteps(net, steps);

                    const std::vector<double> oracle = steppedOracle(
                        net, start.nodes, power, duration);
                    EXPECT_TRUE(
                        net.advanceChecked(power, Seconds{duration})
                            .empty());
                    EXPECT_LE(deviationOfRise(net.snapshotState().nodes,
                                              oracle, start.nodes),
                              1e-9);
                }
            }
        }
    }
}

// Phi is cached per interval length: a run whose intervals change
// length must rebuild it each time, still matching the oracle.
TEST(ThermalPropagator, IntervalLengthChangesRebuildPropagator)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalNetwork net(tech, 33, rk4Config(StackMode::Dynamic, true));
    net.reset(Kelvin{ambient});
    const std::vector<double> power = wirePower(33);
    std::vector<double> oracle = net.snapshotState().nodes;
    for (size_t steps : {23, 23, 112, 23, 5, 112}) {
        const std::vector<double> before = oracle;
        const double duration = durationOfSteps(net, steps);
        oracle = steppedOracle(net, oracle, power, duration);
        EXPECT_TRUE(net.advanceChecked(power, Seconds{duration}).empty());
        EXPECT_LE(deviationOfRise(net.snapshotState().nodes, oracle,
                                  before),
                  1e-9)
            << "steps " << steps;
    }
}

// The node cap decides the path: one Rk4Step call per propagated
// interval, one per step past the cap.
TEST(ThermalPropagator, NodeCapSelectsPropagatorOrStepping)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (unsigned nodes : {kCapNodes, kCapNodes + 1}) {
        ThermalNetwork net(tech, nodes - 1,
                           rk4Config(StackMode::Dynamic, true));
        net.reset(Kelvin{ambient});
        FaultInjector::instance().reset();
        // Armed but never reached: counts the calls only.
        FaultInjector::instance().armCallFault(
            FaultSite::Rk4Step, std::numeric_limits<uint64_t>::max());
        EXPECT_TRUE(net.advanceChecked(wirePower(nodes - 1),
                                       Seconds{durationOfSteps(net, 23)})
                        .empty());
        const uint64_t calls =
            FaultInjector::instance().callCount(FaultSite::Rk4Step);
        FaultInjector::instance().reset();
        EXPECT_EQ(calls, nodes <= kCapNodes ? 1u : 23u)
            << nodes << " nodes";
    }
}

// A user step beyond RK4's stability interval makes Phi amplify the
// fastest mode exactly as stepping would; the divergence guard must
// still see it and clamp.
TEST(ThermalPropagator, UnstableUserStepStillRaisesDivergence)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalNetwork probe(tech, 2, rk4Config(StackMode::None, true));
    const double tau_fast = 5.0 * probe.stepWidth().raw();

    ThermalConfig config = rk4Config(StackMode::None, true);
    config.max_dt = Seconds{3.1 * tau_fast}; // |R(z)| ~ 1.6
    config.temperature_ceiling = Kelvin{0.0};
    ThermalNetwork net(tech, 2, config);
    net.reset(Kelvin{ambient});
    const std::vector<double> power = {1.0, 0.0};
    // Four unstable steps per interval, propagated as one.
    const Seconds interval{4.0 * config.max_dt.raw()};
    bool diverged = false;
    for (int i = 0; i < 100 && !diverged; ++i) {
        for (const ThermalFault &f : net.advanceChecked(power, interval))
            diverged = diverged ||
                f.kind == ThermalFault::Kind::Divergence;
    }
    EXPECT_TRUE(diverged);
    std::vector<double> ss = net.steadyState(power);
    const double ss_max = *std::max_element(ss.begin(), ss.end());
    EXPECT_TRUE(std::isfinite(net.maxTemperature().raw()));
    EXPECT_LE(net.maxTemperature().raw(), ss_max + 1e-6);
}

TEST(ThermalPropagator, PersistentRk4StepFaultIsContainedOnce)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = rk4Config(StackMode::Dynamic, true);
    config.max_integration_retries = 0;
    ThermalNetwork net(tech, 33, config);
    net.reset(Kelvin{ambient});
    const std::vector<double> power = wirePower(33);
    const Seconds interval{durationOfSteps(net, 23)};

    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::Rk4Step, 1, 1);
    std::vector<ThermalFault> faults = net.advanceChecked(power, interval);
    FaultInjector::instance().reset();

    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].kind, ThermalFault::Kind::NonFinite);
    // Neither path committed a step: the state is the start state.
    for (double t : net.snapshotState().nodes)
        EXPECT_EQ(t, ambient);
    EXPECT_TRUE(net.advanceChecked(power, interval).empty());
    for (double t : net.snapshotState().nodes)
        EXPECT_TRUE(std::isfinite(t));
}

TEST(ThermalPropagator, OneShotRk4StepFaultRecoversByStepping)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = rk4Config(StackMode::Dynamic, true);
    config.max_integration_retries = 2;
    ThermalNetwork net(tech, 33, config);
    ThermalNetwork clean(tech, 33, config);
    const ThermalNetwork::SnapshotState start = skewedState(34);
    ASSERT_TRUE(net.restoreSnapshotState(start).ok());
    ASSERT_TRUE(clean.restoreSnapshotState(start).ok());
    const std::vector<double> power = wirePower(33);
    const Seconds interval{durationOfSteps(net, 23)};

    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::Rk4Step, 1);
    std::vector<ThermalFault> faults = net.advanceChecked(power, interval);
    const uint64_t fired =
        FaultInjector::instance().firedCount(FaultSite::Rk4Step);
    FaultInjector::instance().reset();

    EXPECT_TRUE(faults.empty());
    EXPECT_EQ(fired, 1u);
    EXPECT_TRUE(clean.advanceChecked(power, interval).empty());
    // The stepped re-run lands where the propagated interval does.
    EXPECT_LE(deviationOfRise(net.snapshotState().nodes,
                              clean.snapshotState().nodes, start.nodes),
              1e-9);
}

TEST(ThermalPropagator, ResumeFromSnapshotIsBitIdentical)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    const ThermalConfig config = rk4Config(StackMode::Dynamic, true);
    const std::vector<double> hot = wirePower(33);
    const std::vector<double> idle(33, 0.0);
    const Seconds interval{100000.0 / 1.68e9};

    ThermalNetwork a(tech, 33, config);
    a.reset(Kelvin{ambient});
    for (int k = 0; k < 5; ++k)
        EXPECT_TRUE(a.advanceChecked(k % 2 ? idle : hot, interval).empty());

    // A fresh network resumes mid-run; its propagator is rebuilt
    // rather than restored, and must give the same bits.
    ThermalNetwork b(tech, 33, config);
    ASSERT_TRUE(b.restoreSnapshotState(a.snapshotState()).ok());
    for (int k = 0; k < 5; ++k) {
        const std::vector<double> &power = k % 2 ? hot : idle;
        EXPECT_TRUE(a.advanceChecked(power, interval).empty());
        EXPECT_TRUE(b.advanceChecked(power, interval).empty());
    }
    const ThermalNetwork::SnapshotState sa = a.snapshotState();
    const ThermalNetwork::SnapshotState sb = b.snapshotState();
    ASSERT_EQ(sa.nodes.size(), sb.nodes.size());
    for (size_t i = 0; i < sa.nodes.size(); ++i)
        EXPECT_EQ(sa.nodes[i], sb.nodes[i]) << "node " << i;
    EXPECT_EQ(sa.last_max_temp, sb.last_max_temp);
    EXPECT_EQ(sa.rising_streak, sb.rising_streak);
}

TEST(ThermalPropagator, SharedPropagatorIsBitIdenticalToPrivate)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    const ThermalConfig config = rk4Config(StackMode::Dynamic, true);
    const std::vector<double> hot = wirePower(33);
    const std::vector<double> idle(33, 0.0);
    const Seconds interval{100000.0 / 1.68e9};

    ThermalNetwork source(tech, 33, config);
    source.preparePropagator(interval);
    ThermalNetwork shared(tech, 33, config);
    ASSERT_TRUE(shared.sharePropagator(source));
    ThermalNetwork own(tech, 33, config);
    for (ThermalNetwork *net : {&shared, &own})
        ASSERT_TRUE(net->restoreSnapshotState(skewedState(34)).ok());

    // Another interval length makes the sharer build a private
    // propagator; the shared one, and the source, are untouched.
    const Seconds other{durationOfSteps(own, 5)};
    for (const Seconds &length : {interval, interval, other, interval}) {
        for (const std::vector<double> *power : {&hot, &idle}) {
            EXPECT_TRUE(shared.advanceChecked(*power, length).empty());
            EXPECT_TRUE(own.advanceChecked(*power, length).empty());
        }
    }
    const std::vector<double> a = shared.snapshotState().nodes;
    const std::vector<double> b = own.snapshotState().nodes;
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "node " << i;

    ThermalNetwork probe(tech, 33, config);
    ASSERT_TRUE(probe.sharePropagator(source));
    ASSERT_TRUE(probe.restoreSnapshotState(skewedState(34)).ok());
    ThermalNetwork fresh(tech, 33, config);
    ASSERT_TRUE(fresh.restoreSnapshotState(skewedState(34)).ok());
    EXPECT_TRUE(probe.advanceChecked(hot, interval).empty());
    EXPECT_TRUE(fresh.advanceChecked(hot, interval).empty());
    EXPECT_EQ(probe.snapshotState().nodes, fresh.snapshotState().nodes);
}

TEST(ThermalPropagator, SharingRefusedAcrossConfigurations)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    const Seconds interval{100000.0 / 1.68e9};
    ThermalNetwork source(tech, 33, rk4Config(StackMode::Dynamic, true));

    // Nothing built yet: nothing to share.
    ThermalNetwork early(tech, 33, rk4Config(StackMode::Dynamic, true));
    EXPECT_FALSE(early.sharePropagator(source));

    source.preparePropagator(interval);
    ThermalNetwork uncoupled(tech, 33,
                             rk4Config(StackMode::Dynamic, false));
    EXPECT_FALSE(uncoupled.sharePropagator(source));
    ThermalNetwork narrower(tech, 32, rk4Config(StackMode::Dynamic, true));
    EXPECT_FALSE(narrower.sharePropagator(source));
    ThermalConfig implicit = rk4Config(StackMode::Dynamic, true);
    implicit.solver = ThermalSolver::BackwardEuler;
    ThermalNetwork be(tech, 33, implicit);
    EXPECT_FALSE(be.sharePropagator(source));
    EXPECT_TRUE(early.sharePropagator(source));
}

} // anonymous namespace
} // namespace nanobus
