/**
 * @file
 * ODE integrators for the thermal solver stack.
 *
 * Two families live here:
 *
 *  - Rk4Solver — classical fourth-order Runge-Kutta for general
 *    dy/dt = f(t, y), the method the paper uses for Eqs 3-4. Being
 *    explicit, its stable step is bounded by the *stiffest* time
 *    constant in the system, however short the caller's horizon.
 *
 *  - ImplicitLinearSolver — backward-Euler and trapezoidal
 *    (Crank-Nicolson) one-step methods for *linear* systems
 *    dy/dt = A y + b. Both are A-stable: the step width is chosen
 *    for accuracy (from the interval length), not stability, so a
 *    stiff network can be stepped in a handful of solves per
 *    interval. The caller pre-factors the stepping operator
 *    (I - c·dt·A) once and reuses it across every step that shares
 *    dt — for the thermal network that is one factorization per
 *    interval length (docs/THERMAL.md).
 *
 * The linear algebra is injected as a template parameter (a Factor
 * providing solve()/trySolve(), e.g. la's BandedFactorization), so
 * this layer-0 header depends on nothing above util.
 *
 * Both families own their workspace: repeated stepping performs no
 * allocation, and the derivative callback is a borrowed FunctionRef
 * rather than an owning std::function.
 */

#ifndef NANOBUS_UTIL_ODE_HH
#define NANOBUS_UTIL_ODE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "util/function_ref.hh"
#include "util/logging.hh"
#include "util/result.hh"

namespace nanobus {

/**
 * Outcome of a checked integration (Rk4Solver::integrateChecked and
 * ImplicitLinearSolver::integrateChecked share this taxonomy).
 *
 * `ok` is false only when no finite state could be produced (for RK4,
 * after exhausting the retry budget; for the implicit methods, when a
 * linear solve fails or returns non-finite values); the state vector
 * is then left at the last finite value reached and `completed_time`
 * tells how far the integration got.
 */
struct IntegrationReport
{
    /** Whole duration integrated with a finite state throughout. */
    bool ok = true;
    /** Accepted steps. */
    size_t steps = 0;
    /** Step halvings after a non-finite state was detected (RK4
     *  only; the A-stable implicit methods never retry). */
    size_t retries = 0;
    /** Largest |dy_i/dt| observed at an accepted step start — a
     *  residual proxy: large values flag stiffness trouble even when
     *  the state stays finite. */
    double max_derivative = 0.0;
    /** Simulated time actually advanced [same unit as duration]. */
    double completed_time = 0.0;
    /** Failure details when !ok. */
    Error error;
};

/**
 * Fixed-step RK4 solver for dy/dt = f(t, y).
 *
 * The derivative callback fills `dydt` (already sized) from (t, y).
 */
class Rk4Solver
{
  public:
    /**
     * Derivative function signature. A borrowed FunctionRef: the
     * integrator never outlives the call it is passed to, so the
     * hot loop pays no std::function allocation or double
     * indirection. Call sites keep passing lambdas unchanged.
     */
    using Derivative = FunctionRef<
        void(double t, const std::vector<double> &y,
             std::vector<double> &dydt)>;

    /** @param dimension Size of the state vector. */
    explicit Rk4Solver(size_t dimension);

    /** State vector dimension. */
    size_t dimension() const { return k1_.size(); }

    /**
     * Advance `y` in place by one RK4 step of width dt.
     *
     * @param f Derivative function.
     * @param t Current time.
     * @param dt Step width.
     * @param y State; updated to the value at t + dt.
     */
    void step(const Derivative &f, double t, double dt,
              std::vector<double> &y);

    /**
     * Advance `y` from t to t + duration using ceil(duration/max_dt)
     * equal RK4 steps. Returns the number of steps taken.
     */
    size_t integrate(const Derivative &f, double t, double duration,
                     double max_dt, std::vector<double> &y);

    /**
     * Like integrate(), but numerically guarded: after every step the
     * state is checked for NaN/inf; a non-finite state rolls the step
     * back and retries with half the width, up to `max_retries`
     * halvings across the whole call. Without retries it takes
     * exactly integrate()'s ceil(duration/max_dt) steps (the loop
     * counts steps, not accumulated time). Invalid arguments and
     * non-finite initial states are reported as errors rather than
     * panicking, so a batch sweep can survive one bad segment. The
     * fault-injection site FaultSite::Rk4Step poisons one step to
     * exercise the recovery path deterministically.
     */
    [[nodiscard]] IntegrationReport integrateChecked(
        const Derivative &f, double t, double duration, double max_dt,
        std::vector<double> &y, size_t max_retries = 12);

  private:
    std::vector<double> k1_, k2_, k3_, k4_, scratch_;
    std::vector<double> backup_;
};

/** One-step implicit method for linear systems (A-stable). */
enum class ImplicitMethod {
    /** y_{k+1} = y_k + dt (A y_{k+1} + b). First order, L-stable:
     *  stiff transients are damped, never aliased — the robust
     *  choice when dt spans many fast time constants. */
    BackwardEuler,
    /** Crank-Nicolson: trapezoidal average of both endpoints.
     *  Second order, A-stable but not L-stable (stiff modes decay as
     *  (2-z)/(2+z) -> -1, so a step spanning many fast time
     *  constants *aliases* them instead of damping them). The
     *  stepper therefore applies Rannacher startup: the first step
     *  of every horizon is taken as two backward-Euler half-steps —
     *  which reuse the very same factored operator I - (dt/2) A —
     *  crushing stiff content by ~1/z^2 before the trapezoidal steps
     *  take over. Second-order global accuracy is preserved. */
    Trapezoidal,
};

/** Readable method name ("backward-euler" / "trapezoidal"). */
constexpr const char *
implicitMethodName(ImplicitMethod method)
{
    return method == ImplicitMethod::BackwardEuler ? "backward-euler"
                                                   : "trapezoidal";
}

/**
 * Coefficient c of the stepping operator M = I - c·dt·A the caller
 * must factor for a given method (1 for backward Euler, 1/2 for
 * trapezoidal).
 */
constexpr double
implicitOperatorCoefficient(ImplicitMethod method)
{
    return method == ImplicitMethod::BackwardEuler ? 1.0 : 0.5;
}

/**
 * Implicit stepper for the constant-coefficient linear system
 * dy/dt = A y + b over one horizon of equal steps.
 *
 * The caller owns the structure: A is applied through a borrowed
 * matvec callback and the stepping operator M = I - c·dt·A
 * (c = implicitOperatorCoefficient) arrives *pre-factored* as a
 * `Factor` — any type with `solve(const std::vector<double>&)` and
 * `trySolve(...)` returning Result (la's BandedFactorization or
 * LuFactorization both qualify). Factoring once per (A, dt) pair and
 * reusing it across steps — and across calls — is the entire point:
 * each step then costs one O(band) solve.
 *
 * Contract: `factor` MUST be the factorization of I - c·dt·A for
 * exactly the `dt` and `method` passed alongside it; the stepper has
 * no way to verify this. ThermalNetwork derives both from the same
 * cached assembly (src/thermal/network.cc).
 */
template <class Factor>
class ImplicitLinearSolver
{
  public:
    /** Matvec callback: fills `ay` (already sized) with A·y. */
    using ApplyMatrix = FunctionRef<void(
        const std::vector<double> &y, std::vector<double> &ay)>;

    /** @param dimension Size of the state vector. */
    explicit ImplicitLinearSolver(size_t dimension)
        : rhs_(dimension), ay_(dimension)
    {
    }

    /** State vector dimension. */
    size_t dimension() const { return rhs_.size(); }

    /**
     * Advance `y` in place by `steps` equal steps of width dt.
     *
     * Backward Euler solves M y_{k+1} = y_k + dt b; trapezoidal
     * solves M y_{k+1} = y_k + (dt/2) A y_k + dt b, taking its first
     * step as two backward-Euler half-steps (Rannacher startup; see
     * ImplicitMethod::Trapezoidal) through the same operator. Both
     * methods are exactly fixed-point-preserving: at the steady
     * state A y + b = 0 the iteration is stationary regardless of dt.
     */
    void integrate(ImplicitMethod method, const Factor &factor,
                   ApplyMatrix apply, const std::vector<double> &b,
                   double dt, size_t steps, std::vector<double> &y)
    {
        IntegrationReport report =
            run<false>(method, factor, apply, b, dt, steps, y);
        if (!report.ok)
            fatal("ImplicitLinearSolver: %s",
                  report.error.message.c_str());
    }

    /**
     * Checked integrate(): linear-solve failures and non-finite
     * states are reported through the IntegrationReport taxonomy
     * instead of terminating, leaving `y` at the last finite state
     * reached. There is no step-halving (`retries` stays 0): both
     * methods are A-stable, so a failure here means the operator or
     * the inputs are bad, and a narrower step would not help.
     */
    [[nodiscard]] IntegrationReport integrateChecked(
        ImplicitMethod method, const Factor &factor, ApplyMatrix apply,
        const std::vector<double> &b, double dt, size_t steps,
        std::vector<double> &y)
    {
        return run<true>(method, factor, apply, b, dt, steps, y);
    }

  private:
    template <bool Checked>
    IntegrationReport run(ImplicitMethod method, const Factor &factor,
                          ApplyMatrix apply,
                          const std::vector<double> &b, double dt,
                          size_t steps, std::vector<double> &y)
    {
        IntegrationReport report;
        const size_t n = dimension();
        if (y.size() != n || b.size() != n) {
            report.ok = false;
            report.error = Error{
                ErrorCode::InvalidArgument,
                "state/forcing size != dimension " +
                    std::to_string(n)};
            return report;
        }
        if (!(dt > 0.0) || !std::isfinite(dt)) {
            report.ok = false;
            report.error = Error{ErrorCode::InvalidArgument,
                                 "dt must be positive and finite"};
            return report;
        }
        const bool trapezoidal = method == ImplicitMethod::Trapezoidal;

        // One sub-step: build the right-hand side for an effective
        // step h (h = dt for full steps, dt/2 for the Rannacher
        // halves, where `cn` selects the trapezoidal average) and
        // solve through the pre-factored operator.
        auto substep = [&](double h, bool cn) -> bool {
            apply(y, ay_);
            for (size_t i = 0; i < n; ++i) {
                const double dydt = ay_[i] + b[i];
                report.max_derivative = std::max(
                    report.max_derivative, std::fabs(dydt));
                rhs_[i] = cn ? y[i] + 0.5 * h * ay_[i] + h * b[i]
                             : y[i] + h * b[i];
            }
            if constexpr (Checked) {
                Result<std::vector<double>> next =
                    factor.trySolve(rhs_);
                if (!next.ok()) {
                    report.ok = false;
                    report.error = next.error();
                    return false;
                }
                y = next.value();
            } else {
                y = factor.solve(rhs_);
            }
            report.completed_time += h;
            return true;
        };

        size_t k = 0;
        if (trapezoidal && steps > 0) {
            // Rannacher startup (see ImplicitMethod::Trapezoidal):
            // the first step is two backward-Euler half-steps; the
            // operator of BE at dt/2 is I - (dt/2) A — identical to
            // the trapezoidal operator, so `factor` is reused as-is.
            if (!substep(0.5 * dt, false) || !substep(0.5 * dt, false))
                return report;
            ++report.steps;
            k = 1;
        }
        for (; k < steps; ++k) {
            if (!substep(dt, trapezoidal))
                return report;
            ++report.steps;
        }
        return report;
    }

    std::vector<double> rhs_;
    std::vector<double> ay_;
};

} // namespace nanobus

#endif // NANOBUS_UTIL_ODE_HH
