/**
 * @file
 * Thermal-RC network for a bus (Sec 4.1, Eqs 3-4 of the paper).
 *
 * Every wire is a thermal node with capacitance C_i, a resistance R_i
 * toward the layers below, and lateral resistances R_inter to its
 * adjacent wires. Eq 3 (edge wires, one neighbor) and Eq 4 (middle
 * wires, two neighbors) form the linear system dθ/dt = A θ + b whose
 * Jacobian A is tridiagonal (nearest-neighbor lateral coupling) plus,
 * in StackMode::Dynamic, one dense row/column for the shared stack
 * node — exactly la/banded's bordered form.
 *
 * Three integrators step it (ThermalConfig::solver; docs/THERMAL.md):
 *
 *  - ThermalSolver::Rk4 — classical RK4, the method the paper uses
 *    and the oracle default. Explicit, so the step width is bounded
 *    by the stiffest wire time constant regardless of the horizon.
 *    With A and b constant over an interval, its n equal steps are
 *    one linear map y_n = y* + Φ (y_0 − y*), Φ = R(hA)^n and y* the
 *    steady state; networks of up to 128 nodes cache Φ per interval
 *    length and advance with one dense mat-vec, wider ones step.
 *  - ThermalSolver::BackwardEuler / ::Trapezoidal — implicit
 *    steppers over the pre-factored banded operator I - c·dt·A; the
 *    step width derives from the *interval length* (duration /
 *    implicit_steps), not from stiffness, which is what makes
 *    full-width 10k-wire buses steppable (bench/perf_thermal).
 *
 * The reference the wires sink heat into is configurable:
 *  - StackMode::None    — the constant ambient theta_0 (Eqs 3-4
 *    verbatim; inter-layer heating ignored).
 *  - StackMode::Static  — ambient plus the constant Eq 7 offset.
 *  - StackMode::Dynamic — a shared BEOL "stack" node with its own
 *    (large) thermal capacitance, heated by the lower layers'
 *    constant j_max dissipation and by the bus itself, and draining
 *    to ambient through a stack resistance. Its steady state equals
 *    the Static offset, and its time constant reproduces the slow
 *    ramp to saturation seen in Fig 4 (DESIGN.md substitution #5).
 */

#ifndef NANOBUS_THERMAL_NETWORK_HH
#define NANOBUS_THERMAL_NETWORK_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "la/banded.hh"
#include "la/matrix.hh"
#include "tech/technology.hh"
#include "thermal/wire_thermal.hh"
#include "util/ode.hh"
#include "util/result.hh"
#include "util/units.hh"

namespace nanobus {

/**
 * One detected-and-contained thermal anomaly (advanceChecked()).
 *
 * The guarded simulation path never lets a numerical blow-up or a
 * physically impossible temperature propagate: the state is clamped,
 * the incident is recorded as a ThermalFault, and the sweep
 * continues. Faults surface in the experiment result so a batch run
 * over millions of trace segments reports which cells misbehaved
 * instead of dying on the first one.
 */
struct ThermalFault
{
    enum class Kind {
        /** RK4 produced NaN/inf even after exhausting step halvings. */
        NonFinite,
        /** A node crossed the configured temperature ceiling. */
        Ceiling,
        /** Temperatures rose monotonically above the steady-state
         *  bound — numerically impossible for a passive RC network,
         *  so the integration is diverging. */
        Divergence,
    };

    Kind kind = Kind::NonFinite;
    /** Offending node (numWires() for the stack node). */
    unsigned node = 0;
    /** Observed temperature before clamping. */
    Kelvin temperature;
    /** Simulation cycle of the interval (filled by BusSimulator). */
    uint64_t cycle = 0;
    /** Human-readable description. */
    std::string message;
};

/** Readable name of a thermal-fault kind. */
const char *thermalFaultKindName(ThermalFault::Kind kind);

/** How the inter-layer heat path is modeled. */
enum class StackMode {
    None,
    Static,
    Dynamic,
};

/**
 * Which integrator advances the network (docs/THERMAL.md has the
 * selection guidance in full).
 *
 *  - Rk4: the paper's method and the equivalence oracle. Up to 128
 *    nodes, one O(N^2) propagator mat-vec per interval (plus an
 *    O(N^3 log n) build per distinct interval length); wider, cost
 *    grows with interval / (0.2 τ_min) O(N) steps — stiffness-bound.
 *  - BackwardEuler: L-stable first-order implicit; the robust choice
 *    when the step spans many wire time constants (wide buses, long
 *    intervals). Cost per interval: implicit_steps O(width) solves.
 *  - Trapezoidal: A-stable second-order implicit (Crank-Nicolson);
 *    more accurate per step, mildly oscillatory on modes far stiffer
 *    than the step. Same cost shape as BackwardEuler.
 */
enum class ThermalSolver {
    Rk4,
    BackwardEuler,
    Trapezoidal,
};

/** Readable solver name ("rk4" / "backward-euler" / "trapezoidal"). */
const char *thermalSolverName(ThermalSolver solver);

/** Parse a solver name as accepted by bench --solver flags: "rk4",
 *  "be"/"backward-euler", "cn"/"trapezoidal". */
std::optional<ThermalSolver> parseThermalSolver(
    const std::string &name);

/** Thermal network configuration. */
struct ThermalConfig
{
    /** Ambient / substrate temperature theta_0; the paper uses
     *  45 C = 318.15 K. */
    Kelvin ambient{318.15};
    /** Model lateral wire-to-wire conduction (Sec 4.1.1). */
    bool lateral_coupling = true;
    /** Inter-layer heat path mode. */
    StackMode stack_mode = StackMode::Dynamic;
    /** Eq 7 temperature offset (Static and Dynamic modes). */
    Kelvin delta_theta;
    /** Stack-to-ambient resistance (Dynamic mode). */
    KelvinMetersPerWatt stack_resistance{0.05};
    /** Stack time constant (Dynamic mode); sets the Fig 4 ramp. */
    Seconds stack_time_constant{0.020};
    /** Integrator stepping the network. Rk4 is the paper-faithful
     *  oracle default; the implicit solvers are the fast path for
     *  wide buses (see ThermalSolver). */
    ThermalSolver solver = ThermalSolver::Rk4;
    /**
     * Steps each advance() takes with an implicit solver: the step
     * width is duration / implicit_steps — derived from the horizon
     * the caller asks for, not from network stiffness. Both implicit
     * methods are A-stable, so this is purely an accuracy knob
     * (docs/THERMAL.md §3); must be >= 1. Ignored by Rk4.
     */
    unsigned implicit_steps = 4;
    /**
     * RK4 step ceiling; 0 = derive from network stiffness as
     * 0.2 τ_min (τ_min the fastest node time constant). Gershgorin
     * bounds the stiffest eigenvalue by |λ| <= 2/τ_min, so RK4's
     * real-axis stability interval |λ| dt < 2.785 needs
     * dt < 1.39 τ_min — the derived step carries a ~7x margin,
     * asserted in the constructor and revalidated by reset().
     * A *user-supplied* ceiling is taken as-is (tests deliberately
     * exceed the bound to exercise the divergence guard). Ignored
     * by the implicit solvers.
     */
    Seconds max_dt;
    /**
     * Thermal-runaway guard for advanceChecked(): any node above
     * this ceiling is clamped and reported as a ThermalFault. The
     * default sits far above any legitimate BEOL temperature (metal
     * interconnect fails well below copper's 1358 K melting point)
     * but catches numerical blow-ups early. 0 disables the check.
     */
    Kelvin temperature_ceiling{1000.0};
    /** Step-halving budget for the checked integration. */
    unsigned max_integration_retries = 12;
    /**
     * Consecutive advanceChecked() calls with the peak temperature
     * rising beyond the steady-state bound before a Divergence fault
     * is raised (transients may legitimately sit *above* steady
     * state while cooling, but cannot rise away from it).
     */
    unsigned divergence_streak = 3;
};

/** Thermal-RC simulation of an N-wire bus. */
class ThermalNetwork
{
  public:
    /**
     * @param tech Technology node (geometry + dielectric).
     * @param num_wires Bus width (>= 1).
     * @param config Network configuration.
     */
    ThermalNetwork(const TechnologyNode &tech, unsigned num_wires,
                   const ThermalConfig &config = ThermalConfig());

    /** Number of wires. */
    unsigned numWires() const { return num_wires_; }

    /** Per-wire thermal parameters in use. */
    const WireThermalParams &wireParams() const { return params_; }

    /** Active configuration. */
    const ThermalConfig &config() const { return config_; }

    /** Current temperature of wire i. */
    Kelvin temperature(unsigned i) const;

    /** All wire temperatures [K] (bulk solver-boundary buffer). */
    std::vector<double> temperatures() const;

    /** Hottest wire temperature. */
    Kelvin maxTemperature() const;

    /** Mean wire temperature. */
    Kelvin averageTemperature() const;

    /** Stack node temperature (ambient-referenced modes return
     *  the effective reference). */
    Kelvin stackTemperature() const;

    /** Reset every node to the given temperature. */
    void reset(Kelvin temperature);

    /**
     * Advance the network by `duration` with the given per-wire
     * dissipated power [W/m] held constant.
     */
    void advance(const std::vector<double> &power_per_metre,
                 Seconds duration);

    /**
     * Numerically guarded advance(): integrates with the configured
     * solver's checked path (a propagated RK4 interval that comes
     * out non-finite is re-run through Rk4Solver::integrateChecked
     * and its step-halving budget), then applies the thermal-runaway
     * guards (non-finite containment, temperature ceiling, monotonic
     * divergence versus the steady-state bound). Any anomaly clamps
     * the offending state and is returned as a ThermalFault; the
     * network stays usable and the caller's sweep continues.
     */
    [[nodiscard]] std::vector<ThermalFault> advanceChecked(
        const std::vector<double> &power_per_metre, Seconds duration);

    /**
     * Steady-state wire temperatures [K] under constant per-wire
     * power [W/m] — one O(width) banded solve of the conductance
     * system G θ = b through the factorization made at
     * construction, used to validate the transient integration and
     * by the divergence guard.
     */
    std::vector<double> steadyState(
        const std::vector<double> &power_per_metre) const;

    /**
     * The forcing b of dθ/dt = A θ + b under constant per-wire power
     * [W/m] (one entry per node: wires, then the stack node in
     * Dynamic mode). With jacobian() it defines the system every
     * solver integrates.
     */
    std::vector<double> forcing(
        const std::vector<double> &power_per_metre) const;

    /** The RK4 step width in use (stability-derived or the
     *  max_dt override; see ThermalConfig::max_dt). The implicit
     *  solvers ignore it — their step is duration / implicit_steps
     *  per advance() call. */
    Seconds stepWidth() const { return Seconds{dt_}; }

    /** The integrator in use. */
    ThermalSolver solver() const { return config_.solver; }

    /**
     * The network Jacobian A of dθ/dt = A θ + b, assembled once at
     * construction in bordered-banded form [1/s]: tridiagonal over
     * the wires, plus the dense stack row/column in Dynamic mode.
     */
    const BandedMatrix &jacobian() const { return jacobian_; }

    /**
     * Build the RK4 interval propagator for intervals of `duration`
     * now instead of at the first advance() of that length. No-op
     * when the network does not propagate (implicit solvers, or more
     * nodes than the dense-propagator cap).
     */
    void preparePropagator(Seconds duration);

    /**
     * Use `source`'s interval propagator, shared read-only, instead
     * of building an identical one: for networks of one
     * configuration, such as the segments of a BusFabric. Takes it
     * only when `source` has one and both networks have the same
     * Jacobian and RK4 step width, so the advances stay bit-identical
     * to a private build; returns whether it did. An interval of
     * another length later builds a private propagator; the shared
     * one is never modified.
     */
    bool sharePropagator(const ThermalNetwork &source);

    /**
     * Full mutable state, for checkpoint/resume (sim/snapshot.hh):
     * the raw node vector (wires, then the optional stack node) plus
     * the divergence-guard bookkeeping that spans advanceChecked()
     * calls. Restoring on an identically configured network makes
     * further advances bit-identical to one that never stopped.
     */
    struct SnapshotState
    {
        std::vector<double> nodes;
        double last_max_temp = 0.0;
        unsigned rising_streak = 0;
    };

    /** Capture the network state. */
    SnapshotState snapshotState() const
    {
        return SnapshotState{state_, last_max_temp_, rising_streak_};
    }

    /**
     * Restore a previously captured state. InvalidArgument when the
     * node count does not match this network's topology.
     */
    [[nodiscard]] Status restoreSnapshotState(const SnapshotState &s);

  private:
    bool dynamicStack() const
    {
        return config_.stack_mode == StackMode::Dynamic;
    }

    /** Reference temperature wires sink into (non-dynamic modes). */
    double referenceTemperature() const;

    /** Raw peak wire temperature for the internal guard loops. */
    double maxTemperatureRaw() const;

    /** Derive (and contract-check) the RK4 step width from the
     *  stiffest node time constant; pure in the network parameters,
     *  so reset() can revalidate it (see ThermalConfig::max_dt). */
    double deriveRk4Step() const;

    /** Build jacobian_ (bordered-banded A of dθ/dt = A θ + b). */
    void assembleJacobian();

    /** Fill `b` with the forcing of dθ/dt = A θ + b for the given
     *  per-wire power [W/m]. */
    void fillForcing(const std::vector<double> &power,
                     std::vector<double> &b) const;

    /** Assemble the conductance matrix G = −C A (factored once, at
     *  construction, into conductance_). */
    BandedMatrix assembleConductance() const;

    /** Steady state of every node (wires, then the optional stack
     *  node) under `power`: one solve of G θ = b. */
    std::vector<double> steadyNodes(
        const std::vector<double> &power) const;

    /** Advance state_ by one propagated RK4 interval; false (state_
     *  untouched) when the result is non-finite or FaultSite::Rk4Step
     *  fires. */
    bool propagateRk4(const std::vector<double> &power,
                      double duration);

    /** Factor the implicit stepping operator I - c·dt·A for the
     *  given step width, reusing the cached factorization when dt
     *  is unchanged (the common case: equal-length intervals). */
    [[nodiscard]] Status prepareImplicit(double dt);

    /** Shared integration dispatch for advance()/advanceChecked():
     *  steps state_ by `duration` under `power` with the configured
     *  solver, reporting through the IntegrationReport taxonomy. */
    [[nodiscard]] IntegrationReport integrateInterval(
        const std::vector<double> &power, double duration);

    unsigned num_wires_;
    ThermalConfig config_;
    WireThermalParams params_;

    double r_self_;     // [K m / W]
    double r_lateral_;  // [K m / W]
    double c_wire_;     // [J / (K m)]
    double c_stack_ = 0.0;
    double p_lower_ = 0.0;  // constant lower-layer power [W/m]
    double dt_;

    std::vector<double> state_;  // wires, then optional stack node
    Rk4Solver solver_;

    /** Structured system for every solver: assembled once; the
     *  implicit operator is factored per distinct step width. */
    BandedMatrix jacobian_;
    std::vector<double> forcing_;
    /** G of steadyState(), the divergence guard and the propagator's
     *  fixed point. */
    std::optional<BandedFactorization> conductance_;
    /** RK4 interval propagator Phi = R(hA)^n for intervals of
     *  propagated_duration_ (null: none built yet); derived state,
     *  never checkpointed, immutable once built so networks of one
     *  configuration can share it (sharePropagator()). */
    std::shared_ptr<const Matrix> propagator_;
    double propagated_duration_ = 0.0;
    std::vector<double> offset_, next_;
    /** y* of every node under the last propagated interval's
     *  power; advanceChecked() reuses it while have_steady_. */
    std::vector<double> steady_;
    bool have_steady_ = false;
    ImplicitLinearSolver<BandedFactorization> implicit_;
    std::unique_ptr<BandedFactorization> step_factor_;
    double factored_dt_ = 0.0;

    // Divergence tracking across advanceChecked() calls.
    double last_max_temp_ = 0.0;
    unsigned rising_streak_ = 0;
};

} // namespace nanobus

#endif // NANOBUS_THERMAL_NETWORK_HH
