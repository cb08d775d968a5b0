#include "fabric/fabric.hh"

#include <algorithm>
#include <utility>

#include "exec/parallel.hh"

#include "util/contracts.hh"
#include "util/logging.hh"

namespace nanobus {

namespace {

FabricTopology
buildTopology(const FabricConfig &config)
{
    switch (config.topology) {
    case TopologyKind::Ring:
        return FabricTopology::ring(config.tiles);
    case TopologyKind::Mesh2D:
        return FabricTopology::mesh(config.rows, config.cols);
    case TopologyKind::Crossbar:
        return FabricTopology::crossbar(config.tiles);
    }
    fatal("BusFabric: unknown topology kind %u",
          static_cast<unsigned>(config.topology));
}

} // namespace

BusFabric::BusFabric(const TechnologyNode &tech,
                     const FabricConfig &config)
    : tech_(tech), config_(config), topology_(buildTopology(config))
{
    if (config_.segment_coupling &&
        config_.segment_resistance.raw() <= 0.0)
        fatal("BusFabric: segment resistance must be positive "
              "(got %g K*m/W)", config_.segment_resistance.raw());
    if (config_.group_size == 0)
        config_.group_size = 1;

    const unsigned n = topology_.numSegments();
    segments_.reserve(n);
    temps_.reserve(n);
    for (unsigned s = 0; s < n; ++s) {
        segments_.push_back(
            std::make_unique<BusSimulator>(tech_, config_.segment));
        // Every segment runs the same thermal network over the same
        // interval: build its RK4 propagator once, here rather than
        // inside the parallel epochs, and share it read-only.
        segments_[s]->prepareThermalPropagator(
            s == 0 ? nullptr : segments_[0].get());
        temps_.push_back(
            segments_[s]->thermalNetwork().averageTemperature().raw());
    }
    next_temps_ = temps_;
    queue_.resize(n);
    batch_scratch_.resize(n);
}

const BusSimulator &
BusFabric::segment(unsigned s) const
{
    if (s >= segments_.size())
        fatal("BusFabric: segment %u outside %zu segments", s,
              segments_.size());
    return *segments_[s];
}

size_t
BusFabric::route(const FabricTransaction &tx)
{
    route_scratch_.clear();
    topology_.route(tx.src, tx.dst, route_scratch_);
    uint64_t hop_cycle = tx.cycle;
    for (unsigned seg : route_scratch_) {
        queue_[seg].push_back(PendingWord{hop_cycle, tx.payload});
        hop_cycle += config_.hop_latency_cycles;
    }
    return route_scratch_.size();
}

void
BusFabric::stepSegments(size_t begin, size_t end, uint64_t window_end,
                        uint64_t advance_to)
{
    const bool coupled =
        config_.segment_coupling && segments_.size() > 1;
    for (size_t s = begin; s < end; ++s) {
        BusSimulator &bus = *segments_[s];

        if (coupled) {
            // Heat flowing in from adjacent segments, against the
            // temperatures frozen at the epoch boundary (Jacobi
            // exchange: antisymmetric per pair, so the fabric-wide
            // sum is zero and order cannot matter).
            double inflow = 0.0;
            for (unsigned j : topology_.neighbors(
                     static_cast<unsigned>(s)))
                inflow += (temps_[j] - temps_[s]) /
                          config_.segment_resistance.raw();
            bus.setBoundaryPower(
                WattsPerMeter{inflow / bus.busWidth()});
        }

        // The carry is cycle-sorted and older in stream order than
        // every hop routed after it, so a stable sort of carry-then-
        // new orders the window exactly as one stable sort of the
        // whole routed stream would.
        std::vector<PendingWord> &queue = queue_[s];
        std::stable_sort(queue.begin(), queue.end(),
                         [](const PendingWord &a, const PendingWord &b) {
                             return a.cycle < b.cycle;
                         });
        BusBatch &batch = batch_scratch_[s];
        batch.clear();
        size_t played = 0;
        while (played < queue.size() &&
               queue[played].cycle < window_end) {
            batch.add(queue[played].cycle, queue[played].payload);
            ++played;
        }
        queue.erase(queue.begin(),
                    queue.begin() + static_cast<long>(played));
        if (!batch.empty())
            bus.transmitBatch(batch);
        bus.advanceTo(advance_to);
        next_temps_[s] =
            bus.thermalNetwork().averageTemperature().raw();
    }
}

void
BusFabric::stepEpoch(exec::ThreadPool &pool, uint64_t window_end,
                     uint64_t advance_to)
{
    // The chunking is a pure function of (segment count,
    // group_size), never of the pool; each chunk writes only its own
    // segments, queues and next_temps_ slots, and reads temps_.
    const size_t n = segments_.size();
    exec::parallelFor(
        pool, n,
        [&](size_t begin, size_t end) {
            stepSegments(begin, end, window_end, advance_to);
        },
        std::max(config_.group_size, exec::chunkGrain(n, 0)));
    temps_.swap(next_temps_);
}

Result<FabricRunStats>
BusFabric::run(TrafficSource &source, exec::ThreadPool &pool)
{
    FabricRunStats stats;
    stats.last_cycle = resume_cycle_;
    stats.exec.threads = pool.size();
    pool.fillPlacement(stats.exec);

    FabricTransaction tx;
    bool pending = source.next(tx);
    if (!pending)
        return stats;
    const exec::ExecCounters before = pool.counters();

    // Route the transactions injected before `end`. Their hops may
    // land past it; those wait on their segment as carry.
    uint64_t prev_cycle = resume_cycle_;
    auto routeBefore = [&](uint64_t end) {
        while (pending && tx.cycle < end) {
            if (tx.cycle < prev_cycle)
                fatal("BusFabric: transaction cycle %llu moves "
                      "backwards from %llu",
                      static_cast<unsigned long long>(tx.cycle),
                      static_cast<unsigned long long>(prev_cycle));
            prev_cycle = tx.cycle;
            const size_t hops = route(tx);
            const uint64_t arrival =
                tx.cycle + config_.hop_latency_cycles * (hops - 1);
            stats.last_cycle = std::max(stats.last_cycle, arrival);
            stats.hops += hops;
            ++stats.transactions;
            pending = source.next(tx);
        }
    };

    // Segments all share interval_cycles, so they cross interval
    // boundaries in lockstep; epochs resume at the first boundary
    // the previous run() left unclosed. An epoch runs while a hop
    // can still land at or past its boundary: an unrouted
    // transaction sits at or past it, or a routed hop does.
    const uint64_t interval = config_.segment.interval_cycles;
    uint64_t boundary = (resume_cycle_ / interval + 1) * interval;
    for (;;) {
        routeBefore(boundary);
        if (!pending && boundary > stats.last_cycle)
            break;
        stepEpoch(pool, boundary, boundary);
        ++stats.epochs;
        boundary += interval;
    }

    // Trailing partial interval: feed the remaining words and stop
    // the clocks at the last hop cycle — exactly where a standalone
    // simulator's finish() would leave them; no interval closes, so
    // the boundary-power refresh is bookkeeping only.
    stepEpoch(pool, stats.last_cycle + 1, stats.last_cycle);

    for (unsigned s = 0; s < numSegments(); ++s) {
        NANOBUS_EXPECT(queue_[s].empty(),
                       "BusFabric: segment %u left %zu unplayed "
                       "words", s, queue_[s].size());
    }
    const exec::ExecCounters delta = pool.counters() - before;
    stats.exec.tasks_run = delta.tasks_run;
    stats.exec.steals = delta.steals;
    resume_cycle_ = stats.last_cycle;
    return stats;
}

SegmentSummary
BusFabric::summarize(unsigned s) const
{
    const BusSimulator &bus = segment(s);
    SegmentSummary summary;
    summary.segment = s;
    summary.transmissions = bus.transmissions();
    summary.energy = bus.totalEnergy();
    summary.avg_temperature =
        bus.thermalNetwork().averageTemperature();
    summary.max_temperature = bus.thermalNetwork().maxTemperature();
    summary.thermal_faults = bus.thermalFaults().size();
    return summary;
}

EnergyBreakdown
BusFabric::totalEnergy() const
{
    EnergyBreakdown total;
    for (const auto &bus : segments_)
        total += bus->totalEnergy();
    return total;
}

Kelvin
BusFabric::maxTemperature() const
{
    Kelvin hottest = segments_[0]->thermalNetwork().maxTemperature();
    for (const auto &bus : segments_) {
        const Kelvin t = bus->thermalNetwork().maxTemperature();
        if (t.raw() > hottest.raw())
            hottest = t;
    }
    return hottest;
}

size_t
BusFabric::thermalFaultCount() const
{
    size_t count = 0;
    for (const auto &bus : segments_)
        count += bus->thermalFaults().size();
    return count;
}

exec::SupervisedFabricJob
supervisedFabricRunJob(std::string label, const TechnologyNode &tech,
                       FabricConfig config, TrafficConfig traffic)
{
    exec::SupervisedFabricJob job;
    job.label = std::move(label);
    job.body = [&tech, config = std::move(config),
                traffic = std::move(traffic)](exec::JobContext &ctx)
        -> Result<FabricRunReport> {
        // Fresh fabric + traffic per attempt: a retried attempt
        // replays the identical stream against identical cold
        // state, so retries are bit-identical to first tries.
        BusFabric fabric(tech, config);
        SyntheticTraffic source(fabric.topology(), traffic);
        if (!ctx.pulse())
            return Result<FabricRunReport>::failure(
                ErrorCode::BudgetExhausted,
                "fabric run aborted before start");
        Result<FabricRunStats> stats =
            fabric.run(source, exec::ThreadPool::global());
        if (!stats.ok())
            return stats.error();
        if (!ctx.pulse())
            return Result<FabricRunReport>::failure(
                ErrorCode::BudgetExhausted,
                "fabric run aborted after completion");

        FabricRunReport report;
        report.stats = stats.takeValue();
        report.segments.reserve(fabric.numSegments());
        for (unsigned s = 0; s < fabric.numSegments(); ++s)
            report.segments.push_back(fabric.summarize(s));
        report.total_energy = fabric.totalEnergy();
        report.max_temperature = fabric.maxTemperature();
        report.thermal_faults = fabric.thermalFaultCount();
        return report;
    };
    return job;
}

} // namespace nanobus
