/**
 * @file
 * l2_online: execution-driven buses below a cache hierarchy, after
 * examples/l2_bus_study.
 *
 * Setup warms each SPEC profile's caches with its first 200K cycles.
 * Each job then runs the profile's SyntheticCpu inline: fetches drive
 * the instruction-address bus and loads/stores the data-address bus
 * through BusSimulator::transmit, one word per call, while
 * CacheHierarchy::access routes the same record through the caches;
 * its L2 listener drives a third (L1-to-L2) bus. 10K-cycle intervals,
 * Unencoded. This is the one-word-per-call regime of the energy
 * layer, the only workload that exercises `cache`, and it reads no
 * trace file.
 */

#include <numeric>
#include <optional>

#include "cache/hierarchy.hh"
#include "common.hh"
#include "fabric/bus_sim.hh"
#include "jobs.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "traced_bus.hh"
#include "tracer.hh"

using namespace nanobus;

namespace nbbench {

namespace {

/** Cycles per job, sized so a job takes a few hundred ms. */
constexpr uint64_t kCpuCycles = 250000;
/** Cycles setup replays through the caches (no buses) so jobs start
 *  from filled caches rather than cold ones. */
constexpr uint64_t kWarmCycles = 200000;

/** A profile's CPU and caches after warm-up; every job copies it. */
struct WarmState
{
    std::string profile;
    SyntheticCpu cpu;
    CacheHierarchy caches;
    /** First record past the warm-up window (already generated). */
    std::optional<TraceRecord> pending;
};

BusSimConfig
l2Config()
{
    BusSimConfig config;
    config.interval_cycles = 10000;
    config.scheme = EncodingScheme::Unencoded;
    return config;
}

/** Final state of one bus, from either path. */
template <class Bus>
void
reportBus(JobOutput &out, const std::string &name, const Bus &bus,
          uint64_t closes)
{
    out.count(name + ".transmissions", bus.transmissions());
    out.count(name + ".interval_closes", closes);
    out.count(name + ".thermal_faults", bus.thermalFaults().size());
    out.energy(name + ".self_j", bus.totalEnergy().self.raw());
    out.energy(name + ".coupling_j", bus.totalEnergy().coupling.raw());
    out.value(name + ".max_temp_k",
              bus.thermalNetwork().maxTemperature().raw());
    const std::vector<double> &lines = bus.lineEnergies();
    const double sum = std::accumulate(lines.begin(), lines.end(), 0.0);
    const double total = bus.totalEnergy().total().raw();
    if (std::fabs(sum - total) > kValueTolerance * std::fabs(total))
        out.fail(name + " per-line energies do not sum to the total");
    for (double e : lines)
        if (!std::isfinite(e) || e < 0.0)
            out.fail(name + " has a negative or non-finite line energy");
    if (!bus.thermalFaults().empty())
        out.fail(name + " contained a thermal fault");
    const double t = bus.thermalNetwork().maxTemperature().raw();
    if (!std::isfinite(t) ||
        t < bus.thermalNetwork().config().ambient.raw())
        out.fail(name + " temperature below ambient or non-finite");
}

/** Cache activity of one job: the job's hierarchy minus the
 *  warm-up state it started from. */
void
reportCaches(JobOutput &out, const CacheHierarchy &caches,
             const CacheHierarchy &warm, uint64_t records)
{
    const Cache *levels[] = {&caches.l1i(), &caches.l1d(), &caches.l2()};
    const Cache *before[] = {&warm.l1i(), &warm.l1d(), &warm.l2()};
    const char *names[] = {"l1i", "l1d", "l2"};
    uint64_t l1_accesses = 0;
    for (size_t i = 0; i < 3; ++i) {
        const uint64_t accesses = levels[i]->stats().accesses() -
            before[i]->stats().accesses();
        const uint64_t misses =
            levels[i]->stats().misses() - before[i]->stats().misses();
        out.count(std::string("cache.") + names[i] + ".accesses",
                  accesses);
        out.count(std::string("cache.") + names[i] + ".misses", misses);
        out.layer[std::string("cache.") + names[i] + "_accesses"] =
            static_cast<double>(accesses);
        out.layer[std::string("cache.") + names[i] + "_misses"] =
            static_cast<double>(misses);
        if (i < 2)
            l1_accesses += accesses;
    }
    if (l1_accesses != records)
        out.fail("L1 accesses do not match the records replayed");
}

class L2Online final : public Workload
{
  public:
    L2Online(const RunOptions &options, exec::ThreadPool &pool)
        : options_(options), pool_(pool),
          tech_(itrsNode(ItrsNode::Nm130))
    {
    }

    const char *workUnit() const override { return "records"; }

    void setup() override
    {
        warm_.clear();
        const auto &profiles = allBenchmarkNames();
        for (size_t p = 0; p < profiles.size(); ++p) {
            auto state = std::make_unique<WarmState>(WarmState{
                profiles[p],
                SyntheticCpu(benchmarkProfile(profiles[p]),
                             deriveSeed(options_.seed, 100 + p),
                             kWarmCycles + kCpuCycles),
                CacheHierarchy(), std::nullopt});
            TraceRecord r;
            while (state->cpu.next(r)) {
                if (r.cycle >= kWarmCycles) {
                    state->pending = r;
                    break;
                }
                state->caches.access(r);
            }
            warm_.push_back(std::move(state));
        }
    }

    RoundResult round(bool traced) override
    {
        std::vector<JobBody> bodies;
        for (size_t p = 0; p < warm_.size(); ++p) {
            bodies.push_back(JobBody{
                warm_[p]->profile, [this, p, traced] {
                    return traced ? runTraced(*warm_[p])
                                  : runJob(*warm_[p]);
                }});
        }
        return runSupervised(pool_, bodies);
    }

  private:
    /** The l2_bus_study loop; `Bus` is BusSimulator or TracedBus. */
    template <class Bus>
    JobOutput drive(const WarmState &warm, Bus &ia, Bus &da, Bus &l2,
                    bool traced)
    {
        // Buses start at the end of the warm-up window.
        SyntheticCpu cpu = warm.cpu;
        CacheHierarchy caches = warm.caches;
        uint64_t l2_last_cycle = 0;
        caches.setL2BusListener(
            [&](uint64_t cycle, uint32_t address, bool) {
                // Serialize same-cycle pairs, as the study does.
                cycle -= kWarmCycles;
                if (cycle < l2_last_cycle)
                    cycle = l2_last_cycle;
                l2.transmit(cycle, address);
                l2_last_cycle = cycle;
            });
        std::optional<TraceRecord> next = warm.pending;
        uint64_t records = 0, last_cycle = 0;
        while (next) {
            const TraceRecord r = *next;
            const uint64_t cycle = r.cycle - kWarmCycles;
            ++records;
            last_cycle = cycle;
            if (r.kind == AccessKind::InstructionFetch)
                ia.transmit(cycle, r.address);
            else
                da.transmit(cycle, r.address);
            {
                Span span(SpanId::CacheAccess);
                caches.access(r);
            }
            TraceRecord fresh;
            bool more = false;
            if (traced) {
                Span span(SpanId::TraceSynth);
                more = cpu.next(fresh);
            } else {
                more = cpu.next(fresh);
            }
            next = more ? std::optional<TraceRecord>(fresh)
                        : std::nullopt;
        }
        ia.advanceTo(last_cycle);
        da.advanceTo(last_cycle);
        l2.advanceTo(last_cycle);

        JobOutput out;
        out.work = static_cast<double>(records);
        out.count("records", records);
        if (ia.transmissions() + da.transmissions() != records)
            out.fail("IA + DA transmissions do not match the records");
        reportCaches(out, caches, warm.caches, records);
        out.layer["cache.accesses"] = static_cast<double>(records);
        out.layer["cache.l2_bus_words"] =
            static_cast<double>(l2.transmissions());
        return out;
    }

    Result<JobOutput> runJob(const WarmState &warm)
    {
        BusSimulator ia(tech_, l2Config());
        BusSimulator da(tech_, l2Config());
        BusSimulator l2(tech_, l2Config());
        JobOutput out = drive(warm, ia, da, l2, false);
        reportBus(out, "ia", ia, ia.samples().size());
        reportBus(out, "da", da, da.samples().size());
        reportBus(out, "l2", l2, l2.samples().size());
        return out;
    }

    Result<JobOutput> runTraced(const WarmState &warm)
    {
        TracedBus ia(tech_, l2Config(), nullptr);
        TracedBus da(tech_, l2Config(), nullptr);
        TracedBus l2(tech_, l2Config(), nullptr);
        JobOutput out = drive(warm, ia, da, l2, true);
        reportBus(out, "ia", ia, ia.intervalCloses());
        reportBus(out, "da", da, da.intervalCloses());
        reportBus(out, "l2", l2, l2.intervalCloses());
        const TracedBus *buses[] = {&ia, &da, &l2};
        double words = 0, calls = 0, transmits = 0, closes = 0,
               faults = 0;
        for (const TracedBus *bus : buses) {
            words += static_cast<double>(bus->transmissions());
            calls += static_cast<double>(bus->energyCalls());
            transmits += static_cast<double>(bus->transmitCalls());
            closes += static_cast<double>(bus->intervalCloses());
            faults += static_cast<double>(bus->thermalFaults().size());
        }
        out.layer["encoding.words"] = words;
        out.layer["energy.words"] = words;
        out.layer["energy.calls"] = calls;
        out.layer["fabric.transmit_calls"] = transmits;
        out.layer["fabric.interval_closes"] = closes;
        out.layer["thermal.advances"] = closes;
        out.layer["thermal.faults"] = faults;
        return out;
    }

    RunOptions options_;
    exec::ThreadPool &pool_;
    const TechnologyNode &tech_;
    std::vector<std::unique_ptr<WarmState>> warm_;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeL2Online(const RunOptions &options, exec::ThreadPool &pool)
{
    return std::make_unique<L2Online>(options, pool);
}

} // namespace nbbench
