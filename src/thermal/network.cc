#include "thermal/network.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/contracts.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"

namespace nanobus {

const char *
thermalFaultKindName(ThermalFault::Kind kind)
{
    switch (kind) {
      case ThermalFault::Kind::NonFinite:  return "non-finite";
      case ThermalFault::Kind::Ceiling:    return "ceiling";
      case ThermalFault::Kind::Divergence: return "divergence";
    }
    return "unknown";
}

const char *
thermalSolverName(ThermalSolver solver)
{
    switch (solver) {
      case ThermalSolver::Rk4:           return "rk4";
      case ThermalSolver::BackwardEuler: return "backward-euler";
      case ThermalSolver::Trapezoidal:   return "trapezoidal";
    }
    return "unknown";
}

std::optional<ThermalSolver>
parseThermalSolver(const std::string &name)
{
    if (name == "rk4")
        return ThermalSolver::Rk4;
    if (name == "be" || name == "backward-euler")
        return ThermalSolver::BackwardEuler;
    if (name == "cn" || name == "trapezoidal")
        return ThermalSolver::Trapezoidal;
    return std::nullopt;
}

namespace {

/**
 * Largest network (nodes, wires plus the optional stack node) that
 * RK4 advances through the dense interval propagator rather than by
 * stepping. Phi costs N^2 doubles (128 KiB at the cap) and an
 * O(N^3 log n) build per distinct interval length; past the cap the
 * O(N) steps win again, and wide buses belong on the implicit
 * solvers anyway (docs/THERMAL.md §2).
 */
constexpr size_t kPropagatorMaxNodes = 128;

/** The ImplicitMethod a ThermalSolver maps onto (Rk4 has none). */
ImplicitMethod
implicitMethodFor(ThermalSolver solver)
{
    return solver == ThermalSolver::BackwardEuler
        ? ImplicitMethod::BackwardEuler
        : ImplicitMethod::Trapezoidal;
}

} // anonymous namespace

ThermalNetwork::ThermalNetwork(const TechnologyNode &tech,
                               unsigned num_wires,
                               const ThermalConfig &config)
    : num_wires_(num_wires), config_(config), params_(tech),
      solver_(num_wires +
              (config.stack_mode == StackMode::Dynamic ? 1 : 0)),
      implicit_(num_wires +
                (config.stack_mode == StackMode::Dynamic ? 1 : 0))
{
    if (num_wires == 0)
        fatal("ThermalNetwork: bus must have at least one wire");
    if (config_.ambient.raw() <= 0.0)
        fatal("ThermalNetwork: ambient %g K must be positive",
              config_.ambient.raw());
    if (config_.implicit_steps == 0)
        fatal("ThermalNetwork: implicit_steps must be >= 1");

    r_self_ = params_.selfResistance().raw();
    r_lateral_ = params_.lateralResistance().raw();
    c_wire_ = params_.capacitance().raw();

    if (dynamicStack()) {
        if (config_.stack_resistance.raw() <= 0.0 ||
            config_.stack_time_constant.raw() <= 0.0)
            fatal("ThermalNetwork: dynamic stack needs positive "
                  "resistance and time constant");
        // s / (K m / W) composes to J / (K m); K / (K m / W) to W/m.
        c_stack_ = (config_.stack_time_constant /
                    config_.stack_resistance).raw();
        p_lower_ = (config_.delta_theta /
                    config_.stack_resistance).raw();
    }

    // A user-supplied ceiling is taken as-is (ThermalConfig::max_dt:
    // tests deliberately exceed the stability bound to exercise the
    // divergence guard); 0 derives the contract-checked step.
    dt_ = config_.max_dt.raw() > 0.0 ? config_.max_dt.raw()
                                     : deriveRk4Step();

    assembleJacobian();
    conductance_.emplace(assembleConductance());
    forcing_.assign(solver_.dimension(), 0.0);
    state_.assign(solver_.dimension(), config_.ambient.raw());
}

double
ThermalNetwork::deriveRk4Step() const
{
    // Explicit RK4 stability: bound the step by the fastest node
    // time constant. A wire's effective conductance combines its
    // downward path and both lateral paths.
    double wire_conductance = 1.0 / r_self_;
    if (config_.lateral_coupling && num_wires_ > 1)
        wire_conductance += 2.0 / r_lateral_;
    double tau_min = c_wire_ / wire_conductance;
    if (dynamicStack()) {
        double stack_conductance =
            1.0 / config_.stack_resistance.raw() +
            static_cast<double>(num_wires_) / r_self_;
        tau_min = std::min(tau_min, c_stack_ / stack_conductance);
    }
    const double step = 0.2 * tau_min;
    // Gershgorin bounds the stiffest eigenvalue by |lambda| <=
    // 2 / tau_min; RK4's real-axis stability interval |lambda| dt <
    // 2.785 therefore needs dt < 1.39 tau_min. The derived step must
    // sit inside that interval (with its designed ~7x margin) or the
    // default integration would silently diverge.
    NANOBUS_ENSURE(step > 0.0 && std::isfinite(step) &&
                       2.0 * step / tau_min < 2.785,
                   "derived RK4 step %g s outside the stability "
                   "interval of tau_min %g s", step, tau_min);
    return step;
}

void
ThermalNetwork::assembleJacobian()
{
    const bool dyn = dynamicStack();
    jacobian_ = dyn ? BandedMatrix::bordered(num_wires_)
                    : BandedMatrix::tridiagonal(num_wires_);

    const double g_self = 1.0 / r_self_;
    const double g_lat =
        config_.lateral_coupling ? 1.0 / r_lateral_ : 0.0;

    for (unsigned i = 0; i < num_wires_; ++i) {
        double g_total = g_self;
        if (g_lat > 0.0) {
            if (i > 0) {
                g_total += g_lat;
                jacobian_.lower(i - 1) = g_lat / c_wire_;  // a(i, i-1)
            }
            if (i + 1 < num_wires_) {
                g_total += g_lat;
                jacobian_.upper(i) = g_lat / c_wire_;      // a(i, i+1)
            }
        }
        jacobian_.diag(i) = -g_total / c_wire_;
        if (dyn)
            jacobian_.borderCol(i) = g_self / c_wire_;
    }

    if (dyn) {
        const double g_stack = 1.0 / config_.stack_resistance.raw();
        for (unsigned i = 0; i < num_wires_; ++i)
            jacobian_.borderRow(i) = g_self / c_stack_;
        jacobian_.corner() =
            -(static_cast<double>(num_wires_) * g_self + g_stack) /
            c_stack_;
    }
}

void
ThermalNetwork::fillForcing(const std::vector<double> &power,
                            std::vector<double> &b) const
{
    const bool dyn = dynamicStack();
    const double g_self = 1.0 / r_self_;
    const double ref = dyn ? 0.0 : referenceTemperature();

    b.resize(solver_.dimension());
    for (unsigned i = 0; i < num_wires_; ++i) {
        b[i] = power[i] / c_wire_;
        if (!dyn)
            b[i] += g_self * ref / c_wire_;
    }
    if (dyn) {
        const double g_stack = 1.0 / config_.stack_resistance.raw();
        b[num_wires_] =
            (p_lower_ + g_stack * config_.ambient.raw()) / c_stack_;
    }
}

std::vector<double>
ThermalNetwork::forcing(const std::vector<double> &power_per_metre) const
{
    if (power_per_metre.size() != num_wires_)
        fatal("ThermalNetwork::forcing: %zu powers for %u wires",
              power_per_metre.size(), num_wires_);
    std::vector<double> b;
    fillForcing(power_per_metre, b);
    return b;
}

BandedMatrix
ThermalNetwork::assembleConductance() const
{
    // G = -C A: the same bordered-band structure as the Jacobian, in
    // conductances rather than rates, so it factors without pivoting
    // (a strictly diagonally dominant M-matrix).
    const bool dyn = dynamicStack();
    BandedMatrix g = dyn ? BandedMatrix::bordered(num_wires_)
                         : BandedMatrix::tridiagonal(num_wires_);
    const double g_self = 1.0 / r_self_;
    const double g_lat =
        config_.lateral_coupling ? 1.0 / r_lateral_ : 0.0;

    for (unsigned i = 0; i < num_wires_; ++i) {
        double diag = g_self;
        if (dyn)
            g.borderCol(i) = -g_self;
        if (g_lat > 0.0) {
            if (i > 0) {
                diag += g_lat;
                g.lower(i - 1) = -g_lat;   // a(i, i-1)
            }
            if (i + 1 < num_wires_) {
                diag += g_lat;
                g.upper(i) = -g_lat;       // a(i, i+1)
            }
        }
        g.diag(i) = diag;
    }

    if (dyn) {
        const double g_stack = 1.0 / config_.stack_resistance.raw();
        for (unsigned i = 0; i < num_wires_; ++i)
            g.borderRow(i) = -g_self;
        g.corner() =
            g_stack + static_cast<double>(num_wires_) * g_self;
    }
    return g;
}

std::vector<double>
ThermalNetwork::steadyNodes(const std::vector<double> &power) const
{
    // Right-hand side of G theta = b: the wire powers plus the heat
    // the fixed reference (non-dynamic modes) or the ambient and
    // lower layers (the stack row) feed in.
    const bool dyn = dynamicStack();
    std::vector<double> b(solver_.dimension(), 0.0);
    const double g_self = 1.0 / r_self_;
    const double ref = dyn ? 0.0 : referenceTemperature();
    for (unsigned i = 0; i < num_wires_; ++i) {
        if (!dyn)
            b[i] += g_self * ref;
        b[i] += power[i];
    }
    if (dyn) {
        const double g_stack = 1.0 / config_.stack_resistance.raw();
        b[num_wires_] = g_stack * config_.ambient.raw() + p_lower_;
    }
    return conductance_->solve(b);
}

void
ThermalNetwork::preparePropagator(Seconds duration)
{
    const double length = duration.raw();
    if (config_.solver != ThermalSolver::Rk4 ||
        state_.size() > kPropagatorMaxNodes ||
        (propagator_ && propagated_duration_ == length))
        return;

    // The step count and width integrateChecked() would use, so the
    // propagated interval is the stepped one up to rounding.
    auto steps = static_cast<size_t>(std::ceil(length / dt_));
    if (steps == 0)
        steps = 1;
    const double h = length / static_cast<double>(steps);

    // One RK4 step of a linear system is the degree-4 Taylor
    // polynomial R(Z) = I + Z + Z^2/2 + Z^3/6 + Z^4/24 of Z = hA,
    // in Horner form I + Z(I + Z/2 (I + Z/3 (I + Z/4))).
    Matrix z = jacobian_.toDense();
    const size_t n = z.rows();
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < n; ++c)
            z(r, c) *= h;
    }
    auto plusIdentityOver = [n](Matrix &m, double k) {
        for (size_t r = 0; r < n; ++r) {
            for (size_t c = 0; c < n; ++c)
                m(r, c) /= k;
            m(r, r) += 1.0;
        }
    };
    Matrix step = z;
    plusIdentityOver(step, 4.0);
    for (double k : {3.0, 2.0, 1.0}) {
        step = z.multiply(step);
        plusIdentityOver(step, k);
    }

    // Phi = R^steps by binary powering: O(log steps) products.
    Matrix phi;
    bool have = false;
    for (size_t e = steps;;) {
        if (e & 1) {
            phi = have ? phi.multiply(step) : step;
            have = true;
        }
        e >>= 1;
        if (e == 0)
            break;
        step = step.multiply(step);
    }
    propagator_ = std::make_shared<const Matrix>(std::move(phi));
    propagated_duration_ = length;
}

bool
ThermalNetwork::sharePropagator(const ThermalNetwork &source)
{
    if (!source.propagator_ || config_.solver != ThermalSolver::Rk4 ||
        source.config_.solver != ThermalSolver::Rk4 ||
        source.state_.size() != state_.size() || source.dt_ != dt_)
        return false;
    const Matrix mine = jacobian_.toDense();
    const Matrix theirs = source.jacobian_.toDense();
    for (size_t r = 0; r < mine.rows(); ++r) {
        if (!std::equal(mine.rowPtr(r), mine.rowPtr(r) + mine.cols(),
                        theirs.rowPtr(r)))
            return false;
    }
    propagator_ = source.propagator_;
    propagated_duration_ = source.propagated_duration_;
    return true;
}

bool
ThermalNetwork::propagateRk4(const std::vector<double> &power,
                             double duration)
{
    preparePropagator(Seconds{duration});

    // y_n = y* + Phi (y_0 - y*): RK4's discrete fixed point is the
    // exact steady state y* = -A^-1 b for any step width. y* depends
    // on the power alone, so advanceChecked()'s divergence guard
    // reuses it.
    steady_ = steadyNodes(power);
    have_steady_ = true;
    const std::vector<double> &steady = steady_;
    const size_t n = state_.size();
    offset_.resize(n);
    next_.resize(n);
    for (size_t i = 0; i < n; ++i)
        offset_[i] = state_[i] - steady[i];
    bool finite = true;
    for (size_t i = 0; i < n; ++i) {
        const double *row = propagator_->rowPtr(i);
        double acc = 0.0;
        for (size_t j = 0; j < n; ++j)
            acc += row[j] * offset_[j];
        next_[i] = steady[i] + acc;
        finite = finite && std::isfinite(next_[i]);
    }
    if (FaultInjector::active() &&
        FaultInjector::instance().fireCallFault(FaultSite::Rk4Step))
        finite = false;
    if (!finite)
        return false;
    state_.swap(next_);
    return true;
}

Status
ThermalNetwork::prepareImplicit(double dt)
{
    if (step_factor_ && factored_dt_ == dt)
        return Status();

    // M = I - c dt A shares the Jacobian's structure. A is a (weakly
    // diagonally dominant) M-matrix, so M is *strictly* diagonally
    // dominant for any dt > 0 — exactly the la/banded no-pivoting
    // contract.
    const double h =
        implicitOperatorCoefficient(implicitMethodFor(config_.solver)) *
        dt;
    BandedMatrix m = dynamicStack()
        ? BandedMatrix::bordered(num_wires_)
        : BandedMatrix::tridiagonal(num_wires_);
    for (unsigned i = 0; i < num_wires_; ++i) {
        m.diag(i) = 1.0 - h * jacobian_.diag(i);
        if (i + 1 < num_wires_) {
            m.upper(i) = -h * jacobian_.upper(i);
            m.lower(i) = -h * jacobian_.lower(i);
        }
        if (dynamicStack()) {
            m.borderCol(i) = -h * jacobian_.borderCol(i);
            m.borderRow(i) = -h * jacobian_.borderRow(i);
        }
    }
    if (dynamicStack())
        m.corner() = 1.0 - h * jacobian_.corner();

    Result<BandedFactorization> factor =
        BandedFactorization::tryFactor(std::move(m));
    if (!factor.ok()) {
        step_factor_.reset();
        factored_dt_ = 0.0;
        return Status::failure(
            factor.error().code,
            "implicit stepping operator: " + factor.error().message);
    }
    step_factor_ = std::make_unique<BandedFactorization>(
        factor.takeValue());
    factored_dt_ = dt;
    return Status();
}

IntegrationReport
ThermalNetwork::integrateInterval(const std::vector<double> &power,
                                  double duration)
{
    if (config_.solver == ThermalSolver::Rk4) {
        // Narrow networks: one mat-vec through the cached interval
        // propagator. A non-finite (or injected) result leaves the
        // state untouched and the interval is stepped instead, under
        // the checked stepper's retry budget.
        if (state_.size() <= kPropagatorMaxNodes &&
            propagateRk4(power, duration)) {
            IntegrationReport report;
            report.completed_time = duration;
            return report;
        }
        fillForcing(power, forcing_);
        auto deriv = [this](double, const std::vector<double> &y,
                            std::vector<double> &dydt) {
            jacobian_.multiply(y, dydt);
            for (size_t i = 0; i < dydt.size(); ++i)
                dydt[i] += forcing_[i];
        };
        return solver_.integrateChecked(
            deriv, 0.0, duration, dt_, state_,
            config_.max_integration_retries);
    }

    // Implicit path: the step derives from the horizon, not from
    // stiffness — one factorization per distinct step width, reused
    // across the equal-length intervals a trace replay produces.
    const unsigned steps = config_.implicit_steps;
    const double dt = duration / static_cast<double>(steps);
    IntegrationReport report;
    Status prepared = prepareImplicit(dt);
    if (!prepared.ok()) {
        report.ok = false;
        report.error = prepared.error();
        return report;
    }
    fillForcing(power, forcing_);
    auto apply = [this](const std::vector<double> &y,
                        std::vector<double> &ay) {
        jacobian_.multiply(y, ay);
    };
    return implicit_.integrateChecked(
        implicitMethodFor(config_.solver), *step_factor_, apply,
        forcing_, dt, steps, state_);
}

double
ThermalNetwork::referenceTemperature() const
{
    switch (config_.stack_mode) {
      case StackMode::None:
        return config_.ambient.raw();
      case StackMode::Static:
        return (config_.ambient + config_.delta_theta).raw();
      case StackMode::Dynamic:
        return state_.back();
    }
    panic("ThermalNetwork: bad stack mode");
}

Kelvin
ThermalNetwork::temperature(unsigned i) const
{
    if (i >= num_wires_)
        panic("ThermalNetwork::temperature: wire %u out of %u",
              i, num_wires_);
    return Kelvin{state_[i]};
}

std::vector<double>
ThermalNetwork::temperatures() const
{
    return std::vector<double>(state_.begin(),
                               state_.begin() + num_wires_);
}

double
ThermalNetwork::maxTemperatureRaw() const
{
    return *std::max_element(state_.begin(),
                             state_.begin() + num_wires_);
}

Kelvin
ThermalNetwork::maxTemperature() const
{
    return Kelvin{maxTemperatureRaw()};
}

Kelvin
ThermalNetwork::averageTemperature() const
{
    double sum = std::accumulate(state_.begin(),
                                 state_.begin() + num_wires_, 0.0);
    return Kelvin{sum / static_cast<double>(num_wires_)};
}

Kelvin
ThermalNetwork::stackTemperature() const
{
    return Kelvin{dynamicStack() ? state_.back()
                                 : referenceTemperature()};
}

void
ThermalNetwork::reset(Kelvin temperature)
{
    std::fill(state_.begin(), state_.end(), temperature.raw());
    last_max_temp_ = temperature.raw();
    rising_streak_ = 0;
    // dt_ is derived once in the constructor and the network
    // parameters it depends on are immutable, so a reset cannot
    // stale it — revalidate the invariant rather than trusting it.
    if (config_.max_dt.raw() <= 0.0)
        NANOBUS_ENSURE(dt_ == deriveRk4Step(),
                       "stability-derived RK4 step %g s went stale "
                       "across reset()", dt_);
}

Status
ThermalNetwork::restoreSnapshotState(const SnapshotState &s)
{
    if (s.nodes.size() != state_.size()) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreSnapshotState: " +
                std::to_string(s.nodes.size()) + " node(s) for a " +
                std::to_string(state_.size()) + "-node network");
    }
    state_ = s.nodes;
    last_max_temp_ = s.last_max_temp;
    rising_streak_ = s.rising_streak;
    return Status();
}

void
ThermalNetwork::advance(const std::vector<double> &power_per_metre,
                        Seconds duration)
{
    if (power_per_metre.size() != num_wires_)
        fatal("ThermalNetwork::advance: %zu powers for %u wires",
              power_per_metre.size(), num_wires_);
    if (duration.raw() < 0.0)
        fatal("ThermalNetwork::advance: negative duration %g",
              duration.raw());
    if (duration.raw() == 0.0)
        return;

    IntegrationReport report =
        integrateInterval(power_per_metre, duration.raw());
    if (!report.ok)
        fatal("ThermalNetwork::advance (%s): %s",
              thermalSolverName(config_.solver),
              report.error.message.c_str());
}

std::vector<ThermalFault>
ThermalNetwork::advanceChecked(
    const std::vector<double> &power_per_metre, Seconds duration)
{
    if (power_per_metre.size() != num_wires_)
        fatal("ThermalNetwork::advanceChecked: %zu powers for %u "
              "wires", power_per_metre.size(), num_wires_);
    if (duration.raw() < 0.0)
        fatal("ThermalNetwork::advanceChecked: negative duration %g",
              duration.raw());

    std::vector<ThermalFault> faults;
    char buf[160];
    if (duration.raw() == 0.0)
        return faults;

    have_steady_ = false;
    IntegrationReport report =
        integrateInterval(power_per_metre, duration.raw());
    if (!report.ok) {
        // The checked integrators leave the state at the last finite
        // value they reached; contain any residual poison defensively.
        ThermalFault fault;
        fault.kind = ThermalFault::Kind::NonFinite;
        std::snprintf(buf, sizeof(buf),
                      "integration failed after %.3g of %.3g s (%s)",
                      report.completed_time, duration.raw(),
                      report.error.message.c_str());
        fault.message = buf;
        for (size_t i = 0; i < state_.size(); ++i) {
            if (!std::isfinite(state_[i])) {
                fault.node = static_cast<unsigned>(i);
                fault.temperature = Kelvin{state_[i]};
                state_[i] = config_.ambient.raw();
            }
        }
        warn("ThermalNetwork: %s", buf);
        faults.push_back(fault);
    }

    // Physical ceiling: clamp and report every node above it.
    if (config_.temperature_ceiling.raw() > 0.0) {
        for (size_t i = 0; i < state_.size(); ++i) {
            if (state_[i] > config_.temperature_ceiling.raw()) {
                ThermalFault fault;
                fault.kind = ThermalFault::Kind::Ceiling;
                fault.node = static_cast<unsigned>(i);
                fault.temperature = Kelvin{state_[i]};
                std::snprintf(buf, sizeof(buf),
                              "node %zu at %.1f K exceeds ceiling "
                              "%.1f K; clamped", i, state_[i],
                              config_.temperature_ceiling.raw());
                fault.message = buf;
                warn("ThermalNetwork: %s", buf);
                faults.push_back(fault);
                state_[i] = config_.temperature_ceiling.raw();
            }
        }
    }

    // Monotonic divergence: a passive RC network driven by constant
    // power can approach its steady state from above (cooling) but
    // cannot keep rising beyond it. Rising peaks above the bound for
    // several consecutive advances mean the integration is unstable;
    // clamp the wires back onto the steady-state solution.
    double max_temp = maxTemperatureRaw();
    if (config_.divergence_streak > 0 &&
        max_temp > last_max_temp_ + 1e-9) {
        if (!have_steady_)
            steady_ = steadyNodes(power_per_metre);
        const std::vector<double> &ss = steady_;
        const double ss_max =
            *std::max_element(ss.begin(), ss.begin() + num_wires_);
        const double margin =
            5.0 + 1e-6 * std::fabs(ss_max); // [K]
        if (max_temp > ss_max + margin) {
            if (++rising_streak_ >= config_.divergence_streak) {
                ThermalFault fault;
                fault.kind = ThermalFault::Kind::Divergence;
                fault.temperature = Kelvin{max_temp};
                for (unsigned i = 0; i < num_wires_; ++i) {
                    if (state_[i] == max_temp)
                        fault.node = i;
                    state_[i] = std::min(state_[i], ss[i]);
                }
                std::snprintf(buf, sizeof(buf),
                              "peak %.1f K rose %u advances beyond "
                              "the %.1f K steady-state bound; clamped "
                              "to steady state", max_temp,
                              rising_streak_, ss_max);
                fault.message = buf;
                warn("ThermalNetwork: %s", buf);
                faults.push_back(fault);
                rising_streak_ = 0;
                max_temp = maxTemperatureRaw();
            }
        } else {
            rising_streak_ = 0;
        }
    } else {
        rising_streak_ = 0;
    }
    last_max_temp_ = max_temp;

    return faults;
}

std::vector<double>
ThermalNetwork::steadyState(
    const std::vector<double> &power_per_metre) const
{
    if (power_per_metre.size() != num_wires_)
        fatal("ThermalNetwork::steadyState: %zu powers for %u wires",
              power_per_metre.size(), num_wires_);

    // One O(width) solve through the conductance factorization
    // assembled at construction — cheap enough for the divergence
    // guard to call per advance.
    std::vector<double> solution = steadyNodes(power_per_metre);
    solution.resize(num_wires_);
    return solution;
}

} // namespace nanobus
