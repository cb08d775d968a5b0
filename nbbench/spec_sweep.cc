/**
 * @file
 * spec_sweep: the paper's Fig 3 grid as supervised trace sweeps.
 *
 * Setup writes two text traces per SPEC profile and extracts the
 * Maxwell matrix of each physical bus width with the BEM solver (the
 * paper's FastCap step). A round is one supervised batch of
 * trace x {Unencoded, BI, OEBI, CBI} jobs, each a
 * tryRobustTraceSweep over its trace file with 100K-cycle intervals
 * and periodic checkpoints. This is where trace ingest, encoding,
 * energy and snapshot writes do most of the work.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "common.hh"
#include "encoding/encoder.hh"
#include "exec/parallel.hh"
#include "exec/supervisor.hh"
#include "extraction/bem.hh"
#include "jobs.hh"
#include "sim/experiment.hh"
#include "tracer.hh"
#include "traced_bus.hh"
#include "trace/batch.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "util/checkpoint.hh"

using namespace nanobus;

namespace nbbench {

namespace {

/** Traces per profile, each from its own seed. Many short jobs per
 *  round keep the round's tail (the last jobs finishing while other
 *  pool threads idle) a small part of the round. */
constexpr size_t kTracesPerProfile = 2;
/** Cycles per trace: one 100K-cycle interval close per bus plus a
 *  partial interval; a job takes ~150 ms, a round of 64 about two
 *  seconds. */
constexpr uint64_t kTraceCycles = 120000;
/** Ingest batches between checkpoint writes. */
constexpr uint64_t kCheckpointEvery = 8;

struct TraceInput
{
    /** Profile and trace index, e.g. "mcf.1". */
    std::string name;
    std::string path;
    uint64_t records = 0;
    uint64_t fetches = 0;
};

/** Make a freshly written file durable, so its write-back happens
 *  during setup instead of competing with the timed rounds. */
void
syncFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw std::runtime_error("cannot reopen " + path);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
        throw std::runtime_error("cannot sync " + path);
}

class SpecSweep final : public Workload
{
  public:
    SpecSweep(const RunOptions &options, exec::ThreadPool &pool)
        : options_(options), pool_(pool),
          tech_(itrsNode(ItrsNode::Nm130))
    {
    }

    const char *workUnit() const override { return "records"; }

    void setup() override
    {
        traces_.clear();
        maxwell_.clear();
        double synth_s = 0.0, write_s = 0.0, bem_s = 0.0;
        uint64_t bytes = 0, panels = 0;
        const auto &profiles = allBenchmarkNames();
        for (size_t t = 0; t < profiles.size() * kTracesPerProfile; ++t) {
            const size_t p = t % profiles.size();
            TraceInput input;
            input.name =
                profiles[p] + "." + std::to_string(t / profiles.size());
            input.path = options_.work_dir + "/trace-" + input.name +
                ".txt";
            auto t0 = Clock::now();
            std::vector<TraceRecord> records;
            SyntheticCpu cpu(benchmarkProfile(profiles[p]),
                             deriveSeed(options_.seed, t), kTraceCycles);
            TraceRecord record;
            while (cpu.next(record))
                records.push_back(record);
            synth_s += secondsSince(t0);
            t0 = Clock::now();
            TraceWriter writer(input.path);
            for (const TraceRecord &r : records)
                writer.write(r);
            writer.flush();
            syncFile(input.path);
            write_s += secondsSince(t0);
            input.records = records.size();
            for (const TraceRecord &r : records)
                input.fetches += r.kind == AccessKind::InstructionFetch;
            bytes += std::filesystem::file_size(input.path);
            traces_.push_back(input);
        }
        // One extraction per physical width the schemes produce. They
        // run one after another (each fills its panel system on the
        // pool): concurrent extractions would make peak memory depend
        // on how they happen to overlap.
        auto t0 = Clock::now();
        for (EncodingScheme scheme : paperSchemes()) {
            const unsigned width = makeEncoder(scheme, 32)->busWidth();
            if (maxwell_.count(width))
                continue;
            BemExtractor::Options bem;
            bem.pool = &pool_;
            BemExtractor extractor(
                BusGeometry::forTechnology(tech_, width), bem);
            panels += extractor.panelCount();
            maxwell_.emplace(width, extractor.solveMaxwell());
        }
        bem_s = secondsSince(t0);
        setup_metrics_ = {
            {"extraction.bem_s", bem_s},
            {"extraction.panels", static_cast<double>(panels)},
            {"trace.synth_s", synth_s},
            {"trace.write_s", write_s},
            {"trace.file_bytes", static_cast<double>(bytes)},
        };
    }

    std::map<std::string, double> setupMetrics() const override
    {
        return setup_metrics_;
    }

    RoundResult round(bool traced) override
    {
        std::vector<JobBody> bodies;
        const auto &schemes = paperSchemes();
        for (size_t t = 0; t < traces_.size(); ++t) {
            for (size_t s = 0; s < schemes.size(); ++s) {
                const uint32_t job =
                    static_cast<uint32_t>(t * schemes.size() + s);
                bodies.push_back(JobBody{
                    traces_[t].name + "/" + schemeName(schemes[s]),
                    [this, t, s, job, traced] {
                        return traced ? runTraced(job, traces_[t],
                                                  paperSchemes()[s])
                                      : runSweep(job, traces_[t],
                                                 paperSchemes()[s]);
                    }});
            }
        }
        return runSupervised(pool_, bodies);
    }

  private:
    BusSimConfig configFor(EncodingScheme scheme) const
    {
        BusSimConfig config;
        config.scheme = scheme;
        return config;
    }

    std::string checkpointPath(uint32_t job) const
    {
        return options_.work_dir + "/ckpt-" + std::to_string(job) +
            ".nbs";
    }

    const Matrix &maxwellFor(EncodingScheme scheme) const
    {
        return maxwell_.at(makeEncoder(scheme, 32)->busWidth());
    }

    /** Checks both paths share: exact record accounting, clean
     *  containment, and sane energies. */
    static void checkCommon(JobOutput &out, const TraceInput &input,
                            uint64_t records)
    {
        if (records != input.records)
            out.fail("replayed " + std::to_string(records) +
                     " records, trace holds " +
                     std::to_string(input.records));
        out.work = static_cast<double>(records);
    }

    Result<JobOutput> runSweep(uint32_t job, const TraceInput &input,
                               EncodingScheme scheme)
    {
        RobustSweepOptions sweep;
        sweep.checkpoint_path = checkpointPath(job);
        sweep.checkpoint_every_batches = kCheckpointEvery;
        Result<SweepReport> result = tryRobustTraceSweep(
            input.path, tech_, configFor(scheme), &maxwellFor(scheme),
            sweep, &pool_);
        if (!result.ok())
            return result.error();
        const SweepReport &report = result.value();
        JobOutput out;
        checkCommon(out, input, report.records);
        if (!report.completed)
            out.fail("sweep did not complete");
        if (report.analytical_fallback)
            out.fail("extracted Maxwell matrix was rejected");
        out.count("records", report.records);
        out.count("skipped_lines", report.skipped_lines);
        out.count("thermal_faults", report.instruction_faults.size() +
                                        report.data_faults.size());
        // Validation warnings (e.g. a symmetrization repair) are
        // pinned as a count; they degrade nothing.
        out.count("maxwell_warnings", report.warnings.size());
        out.energy("ia.self_j", report.instruction_energy.self.raw());
        out.energy("ia.coupling_j",
                   report.instruction_energy.coupling.raw());
        out.energy("da.self_j", report.data_energy.self.raw());
        out.energy("da.coupling_j", report.data_energy.coupling.raw());
        if (report.skipped_lines != 0 ||
            !report.instruction_faults.empty() ||
            !report.data_faults.empty())
            out.fail("sweep skipped lines or contained a thermal fault");
        return out;
    }

    /** The sweep's stage sequence through the inner layers' public
     *  functions: what SimPipeline::run does inside
     *  tryRobustTraceSweep, one span per call. */
    Result<JobOutput> runTraced(uint32_t job, const TraceInput &input,
                                EncodingScheme scheme)
    {
        const BusSimConfig config = configFor(scheme);
        Result<CapacitanceMatrix> caps = Error{};
        MaxwellValidation validation;
        {
            Span span(SpanId::FromMaxwell);
            caps = CapacitanceMatrix::tryFromMaxwell(maxwellFor(scheme),
                                                     &validation);
        }
        if (!caps.ok())
            return caps.error();
        TraceReader reader(input.path, 1000);
        TracedBus ia(tech_, config, &caps.value());
        TracedBus da(tech_, config, &caps.value());
        PrefetchReader batches(reader, pool_);
        BusBatch ia_batch, da_batch;
        uint64_t records = 0, batch_count = 0, last_cycle = 0;
        uint64_t checkpoints = 0, checkpoint_bytes = 0;
        for (;;) {
            Result<RecordBatch> next = Error{};
            {
                Span span(SpanId::TraceNext);
                next = batches.nextBatch();
            }
            if (!next.ok())
                return next.error();
            const RecordBatch batch = next.value();
            if (batch.empty())
                break;
            {
                Span span(SpanId::SimSplit);
                ia_batch.clear();
                da_batch.clear();
                scatterByKind(batch, ia_batch, da_batch);
            }
            records += batch.size();
            last_cycle = batch[batch.size() - 1].cycle;
            exec::parallelFor(
                pool_, 2,
                [&](size_t begin, size_t end) {
                    for (size_t bus = begin; bus < end; ++bus) {
                        if (bus == 0)
                            ia.transmitBatch(ia_batch);
                        else
                            da.transmitBatch(da_batch);
                    }
                },
                1);
            ++batch_count;
            if (batch_count % kCheckpointEvery == 0) {
                Span span(SpanId::SimCheckpoint);
                SnapshotWriter w;
                w.putU64(records);
                w.putU64(last_cycle);
                ia.saveState(w);
                da.saveState(w);
                Status saved =
                    saveSnapshotFile(checkpointPath(job), w.buffer());
                if (!saved.ok())
                    return saved.error();
                ++checkpoints;
                checkpoint_bytes += w.buffer().size();
            }
        }
        ia.advanceTo(last_cycle);
        da.advanceTo(last_cycle);

        JobOutput out;
        checkCommon(out, input, records);
        out.count("records", records);
        out.count("skipped_lines", reader.skippedLines());
        out.count("thermal_faults",
                  ia.thermalFaults().size() + da.thermalFaults().size());
        out.count("maxwell_warnings", validation.warnings.size());
        out.energy("ia.self_j", ia.totalEnergy().self.raw());
        out.energy("ia.coupling_j", ia.totalEnergy().coupling.raw());
        out.energy("da.self_j", da.totalEnergy().self.raw());
        out.energy("da.coupling_j", da.totalEnergy().coupling.raw());
        out.count("ia.transmissions", ia.transmissions());
        out.count("da.transmissions", da.transmissions());
        out.count("ia.inverts", ia.inverts());
        out.count("da.inverts", da.inverts());
        out.count("interval_closes",
                  ia.intervalCloses() + da.intervalCloses());
        if (ia.transmissions() != input.fetches ||
            da.transmissions() != input.records - input.fetches)
            out.fail("bus transmissions do not match the trace's "
                     "fetch/data split");
        checkLineSum(out, "ia", ia);
        checkLineSum(out, "da", da);
        if (!ia.thermalFaults().empty() || !da.thermalFaults().empty())
            out.fail("thermal fault contained");

        out.layer = {
            {"trace.batches", static_cast<double>(batch_count)},
            {"trace.records", static_cast<double>(records)},
            {"sim.checkpoints", static_cast<double>(checkpoints)},
            {"sim.checkpoint_bytes",
             static_cast<double>(checkpoint_bytes)},
            {"encoding.words", static_cast<double>(records)},
            {"encoding.control_words",
             static_cast<double>(scheme == EncodingScheme::Unencoded
                                     ? 0
                                     : records)},
            {"encoding.inverts",
             static_cast<double>(ia.inverts() + da.inverts())},
            {"energy.words", static_cast<double>(records)},
            {"energy.calls",
             static_cast<double>(ia.energyCalls() + da.energyCalls())},
            {"fabric.transmit_calls",
             static_cast<double>(ia.transmitCalls() +
                                 da.transmitCalls())},
            {"fabric.interval_closes",
             static_cast<double>(ia.intervalCloses() +
                                 da.intervalCloses())},
            {"thermal.advances",
             static_cast<double>(ia.intervalCloses() +
                                 da.intervalCloses())},
            {"thermal.faults",
             static_cast<double>(ia.thermalFaults().size() +
                                 da.thermalFaults().size())},
        };
        return out;
    }

    static void checkLineSum(JobOutput &out, const std::string &bus,
                             const TracedBus &traced)
    {
        const std::vector<double> &lines = traced.lineEnergies();
        const double sum = std::accumulate(lines.begin(), lines.end(), 0.0);
        const double total = traced.totalEnergy().total().raw();
        if (std::fabs(sum - total) > kValueTolerance * std::fabs(total))
            out.fail(bus + " per-line energies do not sum to the total");
        for (double e : lines)
            if (!std::isfinite(e) || e < 0.0)
                out.fail(bus + " has a negative or non-finite line energy");
    }

    RunOptions options_;
    exec::ThreadPool &pool_;
    const TechnologyNode &tech_;
    std::vector<TraceInput> traces_;
    std::map<unsigned, Matrix> maxwell_;
    std::map<std::string, double> setup_metrics_;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSpecSweep(const RunOptions &options, exec::ThreadPool &pool)
{
    return std::make_unique<SpecSweep>(options, pool);
}

} // namespace nbbench
