/**
 * @file
 * fabric_hotspot: BusFabric::run on a 16x16 mesh of bus-invert
 * segments under hotspot traffic.
 *
 * Setup drains seeded hotspot SyntheticTraffic into a vector; a round
 * builds a fresh fabric (the library has no fabric reset) and
 * replays the vector through a VectorTrafficSource, 2000-cycle
 * epochs sharded over the benchmark's pool. Fabric routing, epoch
 * lockstep and exec sharding do the work here, on mid-sized
 * per-segment batches, with no trace ingest.
 */

#include <algorithm>
#include <exception>

#include "common.hh"
#include "fabric/fabric.hh"
#include "tracer.hh"
#include "util/logging.hh"

using namespace nanobus;

namespace nbbench {

namespace {

constexpr unsigned kMeshSide = 16;
/** Transactions per round; at the injection rate below the stream
 *  spans ~120 epochs of 2000 cycles. */
constexpr uint64_t kTransactions = 150000;
constexpr double kInjectionRate = 0.0025;
constexpr double kHotspotFraction = 0.3;

FabricConfig
fabricConfig()
{
    FabricConfig config;
    config.topology = TopologyKind::Mesh2D;
    config.rows = kMeshSide;
    config.cols = kMeshSide;
    config.segment.scheme = EncodingScheme::BusInvert;
    config.segment.interval_cycles = 2000;
    return config;
}

class FabricHotspot final : public Workload
{
  public:
    FabricHotspot(const RunOptions &options, exec::ThreadPool &pool)
        : options_(options), pool_(pool),
          tech_(itrsNode(ItrsNode::Nm130))
    {
    }

    const char *workUnit() const override { return "hops"; }
    bool poolJobs() const override { return false; }

    void setup() override
    {
        const FabricTopology topology =
            FabricTopology::mesh(kMeshSide, kMeshSide);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::Hotspot;
        traffic.injection_rate = kInjectionRate;
        traffic.hotspot_fraction = kHotspotFraction;
        // The hot tile sits mid-mesh for every seed: its position sets
        // the route-length mix, which would otherwise swamp the
        // seed-to-seed comparison.
        traffic.hotspot_tile = (kMeshSide / 2) * kMeshSide + kMeshSide / 2;
        traffic.seed = deriveSeed(options_.seed, 301);
        traffic.max_transactions = kTransactions;
        SyntheticTraffic source(topology, traffic);
        transactions_.clear();
        expected_hops_ = 0;
        FabricTransaction tx;
        while (source.next(tx)) {
            transactions_.push_back(tx);
            expected_hops_ += topology.hopCount(tx.src, tx.dst);
        }
    }

    RoundResult round(bool traced) override
    {
        (void)traced;
        RoundResult result;
        result.jobs.resize(1);
        JobOutput &out = result.jobs[0];
        const auto t0 = Clock::now();
        try {
            Span job(SpanId::Job, 0);
            runFabric(out);
        } catch (const FatalError &e) {
            out.fail(e.message);
        } catch (const std::exception &e) {
            out.fail(e.what());
        }
        out.wall_s = secondsSince(t0);
        out.label = "mesh16x16/hotspot";
        return result;
    }

  private:
    void runFabric(JobOutput &out)
    {
        std::unique_ptr<BusFabric> fabric;
        {
            Span span(SpanId::FabricBuild);
            fabric = std::make_unique<BusFabric>(tech_, fabricConfig());
        }
        VectorTrafficSource source(transactions_);
        Result<FabricRunStats> run = Error{};
        {
            Span span(SpanId::FabricRun);
            run = fabric->run(source, pool_);
        }
        if (!run.ok()) {
            out.fail("fabric run: " + run.error().describe());
            return;
        }
        const FabricRunStats &stats = run.value();
        Span span(SpanId::FabricSummarize);
        uint64_t seg_tx = 0, seg_max = 0;
        double seg_self = 0.0, seg_coupling = 0.0;
        for (unsigned s = 0; s < fabric->numSegments(); ++s) {
            const SegmentSummary summary = fabric->summarize(s);
            seg_tx += summary.transmissions;
            seg_max = std::max(seg_max, summary.transmissions);
            seg_self += summary.energy.self.raw();
            seg_coupling += summary.energy.coupling.raw();
        }
        const EnergyBreakdown total = fabric->totalEnergy();
        out.work = static_cast<double>(stats.hops);
        out.count("transactions", stats.transactions);
        out.count("hops", stats.hops);
        out.count("epochs", stats.epochs);
        out.count("last_cycle", stats.last_cycle);
        out.count("max_segment_hops", seg_max);
        out.count("thermal_faults", fabric->thermalFaultCount());
        out.energy("self_j", total.self.raw());
        out.energy("coupling_j", total.coupling.raw());
        out.value("max_temp_k", fabric->maxTemperature().raw());
        if (stats.transactions != transactions_.size())
            out.fail("fabric ingested a different transaction count");
        if (stats.hops != expected_hops_ || seg_tx != stats.hops)
            out.fail("hop count does not match the routes");
        const double seg_total = seg_self + seg_coupling;
        if (std::fabs(seg_total - total.total().raw()) >
            kValueTolerance * total.total().raw())
            out.fail("segment energies do not sum to the fabric total");
        if (fabric->thermalFaultCount() != 0)
            out.fail("thermal fault contained");
        const double t = fabric->maxTemperature().raw();
        const double ambient = fabricConfig().segment.thermal.ambient.raw();
        if (!std::isfinite(t) || t < ambient)
            out.fail("temperature below ambient or non-finite");
        const double segments = fabric->numSegments();
        out.layer = {
            {"fabric.hops", static_cast<double>(stats.hops)},
            {"fabric.epochs", static_cast<double>(stats.epochs)},
            {"fabric.max_segment_hops", static_cast<double>(seg_max)},
            {"fabric.mean_segment_hops",
             static_cast<double>(seg_tx) / segments},
            {"encoding.words", static_cast<double>(stats.hops)},
            {"energy.words", static_cast<double>(stats.hops)},
        };
    }

    RunOptions options_;
    exec::ThreadPool &pool_;
    const TechnologyNode &tech_;
    std::vector<FabricTransaction> transactions_;
    uint64_t expected_hops_ = 0;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeFabricHotspot(const RunOptions &options, exec::ThreadPool &pool)
{
    return std::make_unique<FabricHotspot>(options, pool);
}

} // namespace nbbench
