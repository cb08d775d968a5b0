/**
 * @file
 * thermal_wide: ThermalNetwork::advanceChecked over seeded, bursty,
 * idle-windowed per-wire power schedules (the Fig 5 shape).
 *
 * Two network shapes share the run: the paper's 33-wire bus on the
 * default RK4, and a 4096-wire bus on backward Euler as
 * docs/THERMAL.md prescribes for wide buses. Networks are built at
 * setup; every job restores its network's initial state and replays
 * its schedule, one advance per 100K-cycle interval, so each round
 * repeats exactly. `thermal` and `la` are ~1% of the other
 * workloads; this one measures them.
 */

#include <algorithm>

#include "common.hh"
#include "jobs.hh"
#include "tech/layer_stack.hh"
#include "thermal/interlayer.hh"
#include "thermal/network.hh"
#include "tracer.hh"
#include "util/random.hh"

using namespace nanobus;

namespace nbbench {

namespace {

/** Distinct per-wire power patterns a schedule draws from; pattern 0
 *  is the idle (all-zero) window. */
constexpr size_t kPatterns = 24;
/** Mean per-wire power of an active interval [W/m]. */
constexpr double kActivePower = 0.4;

struct Shape
{
    const char *name;
    unsigned wires;
    ThermalSolver solver;
    /** Intervals per job, sized so both shapes take comparable
     *  host time. */
    size_t intervals;
};

constexpr Shape kShapes[] = {
    {"w33-rk4", 33, ThermalSolver::Rk4, 500},
    {"w4096-be", 4096, ThermalSolver::BackwardEuler, 600},
};
/** Jobs per shape in a round; job order alternates the shapes. */
constexpr size_t kJobsPerShape = 4;

struct ThermalJob
{
    const Shape *shape = nullptr;
    std::unique_ptr<ThermalNetwork> network;
    ThermalNetwork::SnapshotState initial;
    std::vector<std::vector<double>> patterns;
    /** Per-interval pattern index. */
    std::vector<uint16_t> schedule;
    /** Element-wise max over the patterns: the steady state under it
     *  bounds every temperature the schedule can reach. */
    std::vector<double> envelope;
};

class ThermalWide final : public Workload
{
  public:
    ThermalWide(const RunOptions &options, exec::ThreadPool &pool)
        : options_(options), pool_(pool),
          tech_(itrsNode(ItrsNode::Nm130)),
          interval_(100000.0 / tech_.f_clk)
    {
    }

    const char *workUnit() const override { return "wire_intervals"; }

    void setup() override
    {
        jobs_.clear();
        double build_s = 0.0;
        for (size_t k = 0; k < kJobsPerShape; ++k) {
            for (const Shape &shape : kShapes) {
                const uint64_t salt = 400 + jobs_.size();
                auto job = std::make_unique<ThermalJob>();
                job->shape = &shape;
                makeSchedule(*job, deriveSeed(options_.seed, salt));
                const auto t0 = Clock::now();
                ThermalConfig config;
                config.solver = shape.solver;
                MetalLayerStack stack(tech_);
                config.delta_theta =
                    InterLayerModel(tech_, stack).deltaTheta();
                job->network = std::make_unique<ThermalNetwork>(
                    tech_, shape.wires, config);
                job->network->reset(config.ambient);
                // Finish lazy set-up (the implicit solver factors its
                // step operator on first use) before capturing the
                // state every job restores.
                (void)job->network->advanceChecked(job->patterns[0],
                                                   interval_);
                job->network->reset(config.ambient);
                job->initial = job->network->snapshotState();
                build_s += secondsSince(t0);
                jobs_.push_back(std::move(job));
            }
        }
        setup_metrics_ = {{"thermal.build_s", build_s}};
    }

    std::map<std::string, double> setupMetrics() const override
    {
        return setup_metrics_;
    }

    RoundResult round(bool traced) override
    {
        (void)traced;
        std::vector<JobBody> bodies;
        for (size_t j = 0; j < jobs_.size(); ++j) {
            bodies.push_back(JobBody{
                std::string(jobs_[j]->shape->name) + "/" +
                    std::to_string(j),
                [this, j] { return runJob(*jobs_[j]); }});
        }
        return runSupervised(pool_, bodies);
    }

  private:
    /** Bursty on/off activity: active windows of geometric length
     *  (mean 12 intervals) alternate with idle windows (mean 6),
     *  each active interval drawing one of the hot patterns. */
    void makeSchedule(ThermalJob &job, uint64_t seed) const
    {
        Rng rng(seed);
        const unsigned n = job.shape->wires;
        job.patterns.assign(kPatterns, std::vector<double>(n, 0.0));
        job.envelope.assign(n, 0.0);
        for (size_t p = 1; p < kPatterns; ++p) {
            // A burst heats a random contiguous band of wires harder.
            const unsigned band_lo =
                static_cast<unsigned>(rng.below(n));
            const unsigned band_len =
                1 + static_cast<unsigned>(rng.below(std::max(1u, n / 4)));
            for (unsigned i = 0; i < n; ++i) {
                double p_i = kActivePower * rng.uniform(0.2, 1.0);
                if (i >= band_lo && i < band_lo + band_len)
                    p_i *= 2.5;
                job.patterns[p][i] = p_i;
                job.envelope[i] = std::max(job.envelope[i], p_i);
            }
        }
        job.schedule.clear();
        bool active = true;
        while (job.schedule.size() < job.shape->intervals) {
            const uint64_t len =
                1 + rng.geometric(active ? 1.0 / 12.0 : 1.0 / 6.0);
            for (uint64_t i = 0;
                 i < len && job.schedule.size() < job.shape->intervals;
                 ++i) {
                job.schedule.push_back(
                    active ? static_cast<uint16_t>(
                                 1 + rng.below(kPatterns - 1))
                           : uint16_t{0});
            }
            active = !active;
        }
    }

    Result<JobOutput> runJob(ThermalJob &job)
    {
        ThermalNetwork &net = *job.network;
        {
            Span span(SpanId::ThermalRestore);
            Status restored = net.restoreSnapshotState(job.initial);
            if (!restored.ok())
                return restored.error();
        }
        uint64_t faults = 0;
        for (uint16_t pattern : job.schedule) {
            Span span(SpanId::ThermalAdvance);
            faults +=
                net.advanceChecked(job.patterns[pattern], interval_).size();
        }
        std::vector<double> bound;
        {
            Span span(SpanId::ThermalSteady);
            bound = net.steadyState(job.envelope);
        }
        JobOutput out;
        const size_t intervals = job.schedule.size();
        out.work = static_cast<double>(intervals) * job.shape->wires;
        out.count("intervals", intervals);
        out.count("thermal_faults", faults);
        out.value("max_temp_k", net.maxTemperature().raw());
        out.value("avg_temp_k", net.averageTemperature().raw());
        out.value("stack_temp_k", net.stackTemperature().raw());
        out.value("bound_max_k",
                  *std::max_element(bound.begin(), bound.end()));
        if (faults != 0)
            out.fail("thermal fault contained");
        const std::vector<double> temps = net.temperatures();
        const double ambient = net.config().ambient.raw();
        for (size_t i = 0; i < temps.size(); ++i) {
            const double rise = bound[i] - ambient;
            if (!std::isfinite(temps[i]) || temps[i] < ambient ||
                temps[i] > bound[i] + kValueTolerance * rise) {
                out.fail("wire " + std::to_string(i) +
                         " left [ambient, steady-state bound]");
                break;
            }
        }
        out.layer = {
            {"thermal.advances", static_cast<double>(intervals)},
            {"thermal.faults", static_cast<double>(faults)},
        };
        return out;
    }

    RunOptions options_;
    exec::ThreadPool &pool_;
    const TechnologyNode &tech_;
    const Seconds interval_;
    std::vector<std::unique_ptr<ThermalJob>> jobs_;
    std::map<std::string, double> setup_metrics_;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeThermalWide(const RunOptions &options, exec::ThreadPool &pool)
{
    return std::make_unique<ThermalWide>(options, pool);
}

} // namespace nbbench
