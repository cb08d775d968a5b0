/**
 * @file
 * nbbench — the nanobus benchmark driver.
 *
 *   nbbench --workload <spec_sweep|l2_online|fabric_hotspot|
 *                       thermal_wide|all>
 *           --seed N --seconds N --trace 0|1
 *           [--reference FILE] [--emit-reference FILE]
 *           [--work-dir DIR] [--spans FILE]
 *
 * One process, one exec::ThreadPool of min(4, nproc) threads. Each
 * workload is set up kSetupReps times (setup_s is the median), then
 * runs closed-loop rounds until --seconds have elapsed. With
 * --trace 1 the time is split: an untraced half (the baseline of
 * tracing.overhead_ratio) and a traced half that yields the
 * per-layer metrics. Every job's outputs are checked: against the
 * first round of this run, against the traced path, against the
 * reference values kept for this seed, and by each workload's
 * physical-sanity assertions. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "tracer.hh"
#include "util/logging.hh"

using namespace nanobus;
using namespace nbbench;

namespace {

constexpr int kSetupReps = 3;

const char *const kWorkloads[] = {"spec_sweep", "l2_online",
                                  "fabric_hotspot", "thermal_wide"};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string emit_reference;
    std::string work_dir = ".";
    std::string spans;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "nbbench: %s\n", why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--reference") {
            args.reference = value;
        } else if (flag == "--emit-reference") {
            args.emit_reference = value;
        } else if (flag == "--work-dir") {
            args.work_dir = value;
        } else if (flag == "--spans") {
            args.spans = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + flag).c_str());
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunOptions &options,
             exec::ThreadPool &pool)
{
    if (name == "spec_sweep")
        return makeSpecSweep(options, pool);
    if (name == "l2_online")
        return makeL2Online(options, pool);
    if (name == "fabric_hotspot")
        return makeFabricHotspot(options, pool);
    if (name == "thermal_wide")
        return makeThermalWide(options, pool);
    return nullptr;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                   usage.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- check

/** One expected value: an exact count or a toleranced value. */
struct Expected
{
    bool is_count = false;
    uint64_t count = 0;
    double value = 0.0;
};

/** Expected values keyed "label\tkey". */
using RefStore = std::map<std::string, Expected>;

/** Reference lines: workload, seed, label, key, c|v, value. */
RefStore
loadReference(const std::string &path, const std::string &workload,
              uint64_t seed)
{
    RefStore store;
    if (path.empty())
        return store;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> f;
        std::stringstream ss(line);
        std::string field;
        while (std::getline(ss, field, '\t'))
            f.push_back(field);
        if (f.size() != 6 || f[0] != workload ||
            f[1] != std::to_string(seed))
            continue;
        Expected e;
        e.is_count = f[4] == "c";
        if (e.is_count)
            e.count = std::strtoull(f[5].c_str(), nullptr, 10);
        else
            e.value = std::strtod(f[5].c_str(), nullptr);
        store[f[2] + "\t" + f[3]] = e;
    }
    return store;
}

class Checker
{
  public:
    double max_rel_dev = 0.0;
    size_t problems = 0;

    /** Compare `out` with every key `store` has; false on mismatch. */
    bool compare(const JobOutput &out, const RefStore &store,
                 const char *against)
    {
        bool ok = true;
        for (const auto &[key, v] : out.counts) {
            auto it = store.find(out.label + "\t" + key);
            if (it == store.end())
                continue;
            const double ref = static_cast<double>(it->second.count);
            if (!it->second.is_count || it->second.count != v) {
                note(out.label, key, against,
                     std::to_string(v) + " != " +
                         std::to_string(it->second.count));
                max_rel_dev = std::max(
                    max_rel_dev,
                    std::fabs(static_cast<double>(v) - ref) /
                        std::max(1.0, ref));
                ok = false;
            }
        }
        for (const auto &[key, v] : out.values) {
            auto it = store.find(out.label + "\t" + key);
            if (it == store.end())
                continue;
            const double ref = it->second.value;
            const double dev =
                std::fabs(v - ref) / std::max(std::fabs(ref), 1e-300);
            max_rel_dev = std::max(max_rel_dev, dev);
            if (it->second.is_count || !(dev <= kValueTolerance)) {
                char buf[96];
                std::snprintf(buf, sizeof buf, "%.17g vs %.17g", v, ref);
                note(out.label, key, against, buf);
                ok = false;
            }
        }
        return ok;
    }

    /** Add the keys of `out` that `store` lacks. */
    static void remember(const JobOutput &out, RefStore &store)
    {
        for (const auto &[key, v] : out.counts)
            store.emplace(out.label + "\t" + key, Expected{true, v, 0.0});
        for (const auto &[key, v] : out.values)
            store.emplace(out.label + "\t" + key, Expected{false, 0, v});
    }

    void note(const std::string &label, const std::string &key,
              const char *against, const std::string &detail)
    {
        if (problems++ < 20)
            std::fprintf(stderr, "check: %s %s differs from %s: %s\n",
                         label.c_str(), key.c_str(), against,
                         detail.c_str());
    }
};

// ---------------------------------------------------------------- phases

struct PhaseStats
{
    double wall_s = 0.0;
    double work = 0.0;
    double cpu_s = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    size_t rounds = 0;
    std::vector<double> job_walls;
    /** Work per host second of each round. */
    std::vector<double> round_rates;
    std::map<std::string, double> layer;
    exec::ExecCounters pool;

    /** Median round throughput: robust to a round that shared the
     *  host with a transient load. */
    double throughput() const { return median(round_rates); }
};

PhaseStats
runPhase(Workload &workload, exec::ThreadPool &pool, bool traced,
         double seconds, Checker &checker, RefStore &run_ref,
         const RefStore &file_ref)
{
    PhaseStats stats;
    // Check one round's jobs; returns the work they did.
    auto account = [&](RoundResult &round, bool timed) {
        double work = 0.0;
        for (JobOutput &job : round.jobs) {
            ++stats.attempted;
            bool ok = job.ok;
            if (!ok) {
                std::fprintf(stderr, "job %s failed: %s\n",
                             job.label.c_str(), job.error.c_str());
            } else {
                ok = checker.compare(job, run_ref,
                                     traced ? "the untraced run"
                                            : "the first round");
                ok = checker.compare(job, file_ref,
                                     "the kept reference") && ok;
                Checker::remember(job, run_ref);
            }
            stats.failed += !ok;
            work += job.work;
            if (!timed)
                continue;
            stats.retries += job.attempts > 1 ? job.attempts - 1 : 0;
            stats.job_walls.push_back(job.wall_s);
            for (const auto &[key, v] : job.layer)
                stats.layer[key] += v;
        }
        return work;
    };
    // One untimed round first, so page faults, pool spin-up and lazy
    // library set-up are not charged to the first timed round.
    RoundResult warm = workload.round(traced);
    account(warm, false);

    if (traced) {
        Tracer::reset();
        Tracer::setEnabled(true);
    }
    const exec::ExecCounters pool_before = pool.counters();
    const double cpu_before = cpuSeconds();
    const auto t0 = Clock::now();
    do {
        const auto round_start = Clock::now();
        RoundResult round = workload.round(traced);
        const double round_s = secondsSince(round_start);
        const double work = account(round, true);
        stats.work += work;
        stats.round_rates.push_back(work / round_s);
        ++stats.rounds;
    } while (secondsSince(t0) < seconds);
    stats.wall_s = secondsSince(t0);
    Tracer::setEnabled(false);
    stats.cpu_s = cpuSeconds() - cpu_before;
    stats.pool = pool.counters() - pool_before;
    return stats;
}

// ---------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer metrics in report order, with units. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"extraction.bem_s", "s"},
    {"extraction.panels", "count"},
    {"trace.synth_s", "s"},
    {"trace.write_s", "s"},
    {"trace.file_bytes", "B"},
    {"trace.batches", "count"},
    {"trace.records", "count"},
    {"trace.next_s", "s"},
    {"trace.next_p99_ms", "ms"},
    {"sim.split_s", "s"},
    {"sim.checkpoints", "count"},
    {"sim.checkpoint_bytes", "B"},
    {"sim.checkpoint_s", "s"},
    {"encoding.words", "count"},
    {"encoding.encode_s", "s"},
    {"encoding.ns_per_word", "ns"},
    {"encoding.invert_ratio", "ratio"},
    {"energy.words", "count"},
    {"energy.calls", "count"},
    {"energy.words_per_call", "ratio"},
    {"energy.step_s", "s"},
    {"energy.ns_per_word", "ns"},
    {"fabric.transmit_calls", "count"},
    {"fabric.transmit_s", "s"},
    {"fabric.transmit_p99_us", "us"},
    {"fabric.interval_closes", "count"},
    {"fabric.run_s", "s"},
    {"fabric.hops", "count"},
    {"fabric.epochs", "count"},
    {"fabric.hop_imbalance", "ratio"},
    {"thermal.build_s", "s"},
    {"thermal.advances", "count"},
    {"thermal.advance_s", "s"},
    {"thermal.advance_p50_us", "us"},
    {"thermal.advance_p99_us", "us"},
    {"thermal.faults", "count"},
    {"thermal.steady_s", "s"},
    {"cache.accesses", "count"},
    {"cache.access_s", "s"},
    {"cache.l1i_miss_ratio", "ratio"},
    {"cache.l1d_miss_ratio", "ratio"},
    {"cache.l2_miss_ratio", "ratio"},
    {"cache.l2_bus_words", "count"},
    {"exec.threads", "count"},
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"exec.utilization", "ratio"},
    {"exec.job_max_over_median", "ratio"},
    {"exec.retries", "count"},
    {"tracing.overhead_ratio", "ratio"},
    {"tracing.wall_s", "s"},
    {"tracing.coverage", "ratio"},
    {"tracing.spans", "count"},
    {"check.max_rel_dev", "ratio"},
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
layerMetrics(const Workload &workload, const PhaseStats &untraced,
             const PhaseStats &traced, unsigned threads,
             const Checker &checker)
{
    std::map<std::string, double> m;
    for (const auto &[name, unit] : kLayerMetrics)
        m[name] = 0.0;
    const auto agg = Tracer::aggregate();
    // Layer times are self times: a span waiting on the pool (e.g.
    // nextBatch behind a prefetch fill) may run whole other jobs
    // inside it. Only the BusSimulator / BusFabric calls, whose
    // children are the layers they hide, report whole durations.
    auto self_s = [&](SpanId id) {
        return 1e-9 * static_cast<double>(
                          agg[static_cast<size_t>(id)].self_ns);
    };
    auto total_s = [&](SpanId id) {
        return 1e-9 * static_cast<double>(
                          agg[static_cast<size_t>(id)].total_ns);
    };
    auto self_quantile = [&](SpanId id, double q) {
        return agg[static_cast<size_t>(id)].self_hist.quantileNs(q);
    };
    auto quantile = [&](SpanId id, double q) {
        return agg[static_cast<size_t>(id)].hist.quantileNs(q);
    };
    const std::map<std::string, double> &L = traced.layer;
    auto layer = [&](const char *key) {
        auto it = L.find(key);
        return it == L.end() ? 0.0 : it->second;
    };

    m["trace.synth_s"] = self_s(SpanId::TraceSynth);
    for (const char *key :
         {"trace.batches", "trace.records", "sim.checkpoints",
          "sim.checkpoint_bytes", "encoding.words", "energy.words",
          "energy.calls", "fabric.transmit_calls",
          "fabric.interval_closes", "fabric.hops", "fabric.epochs",
          "thermal.advances", "thermal.faults", "cache.accesses",
          "cache.l2_bus_words"})
        m[key] = layer(key);
    for (const auto &[key, v] : workload.setupMetrics())
        m[key] = v;

    m["trace.next_s"] = self_s(SpanId::TraceNext);
    m["trace.next_p99_ms"] = 1e-6 * self_quantile(SpanId::TraceNext, 0.99);
    m["sim.split_s"] = self_s(SpanId::SimSplit);
    m["sim.checkpoint_s"] = self_s(SpanId::SimCheckpoint);
    m["encoding.encode_s"] = self_s(SpanId::Encode);
    m["encoding.ns_per_word"] =
        ratio(1e9 * m["encoding.encode_s"], m["encoding.words"]);
    m["encoding.invert_ratio"] = ratio(layer("encoding.inverts"),
                                       layer("encoding.control_words"));
    m["energy.step_s"] = self_s(SpanId::EnergyStep);
    m["energy.words_per_call"] =
        ratio(m["energy.words"], m["energy.calls"]);
    m["energy.ns_per_word"] =
        ratio(1e9 * m["energy.step_s"], m["energy.words"]);
    m["fabric.transmit_s"] = total_s(SpanId::BusTransmit);
    m["fabric.transmit_p99_us"] =
        1e-3 * quantile(SpanId::BusTransmit, 0.99);
    m["fabric.run_s"] = total_s(SpanId::FabricRun);
    m["fabric.hop_imbalance"] = ratio(layer("fabric.max_segment_hops"),
                                      layer("fabric.mean_segment_hops"));
    m["thermal.advance_s"] = self_s(SpanId::ThermalAdvance);
    m["thermal.advance_p50_us"] =
        1e-3 * self_quantile(SpanId::ThermalAdvance, 0.5);
    m["thermal.advance_p99_us"] =
        1e-3 * self_quantile(SpanId::ThermalAdvance, 0.99);
    m["thermal.steady_s"] = self_s(SpanId::ThermalSteady);
    m["cache.access_s"] = self_s(SpanId::CacheAccess);
    for (const char *level : {"l1i", "l1d", "l2"}) {
        const std::string base = std::string("cache.") + level;
        m[base + "_miss_ratio"] =
            ratio(layer((base + "_misses").c_str()),
                  layer((base + "_accesses").c_str()));
    }

    // Execution counters come from the untraced half.
    const double lanes_untraced =
        untraced.wall_s * static_cast<double>(threads);
    m["exec.threads"] = threads;
    m["exec.tasks"] = static_cast<double>(untraced.pool.tasks_run);
    m["exec.steals"] = static_cast<double>(untraced.pool.steals);
    // Process CPU time over the pool's thread-time: job walls would
    // double-count the jobs a waiting job runs inside its waits.
    m["exec.utilization"] = ratio(untraced.cpu_s, lanes_untraced);
    m["exec.job_max_over_median"] =
        ratio(*std::max_element(untraced.job_walls.begin(),
                                untraced.job_walls.end()),
              median(untraced.job_walls));
    m["exec.retries"] = static_cast<double>(untraced.retries);

    // Shares of the traced wall: pool-job workloads have one lane per
    // thread; a single fanned-out call has one lane (the caller).
    const double lanes = workload.poolJobs() ? threads : 1.0;
    const double budget_ns = 1e9 * traced.wall_s * lanes;
    const double covered = static_cast<double>(Tracer::rootNs());
    double spans = 0.0;
    std::vector<double> self(kLayers, 0.0);
    for (size_t i = 0; i < kSpanKinds; ++i) {
        spans += static_cast<double>(agg[i].count);
        self[static_cast<size_t>(spanLayer(static_cast<SpanId>(i)))] +=
            static_cast<double>(agg[i].self_ns);
    }
    self[static_cast<size_t>(Layer::Exec)] +=
        std::max(0.0, budget_ns - covered);
    m["tracing.overhead_ratio"] =
        ratio(untraced.throughput(), traced.throughput());
    m["tracing.wall_s"] = traced.wall_s;
    m["tracing.coverage"] = ratio(covered, budget_ns);
    m["tracing.spans"] = spans;
    m["check.max_rel_dev"] = checker.max_rel_dev;

    std::vector<Metric> out;
    for (const auto &[name, unit] : kLayerMetrics)
        out.push_back({name, m[name], unit});
    for (size_t l = 0; l < kLayers; ++l)
        out.push_back({std::string("share.") +
                           layerName(static_cast<Layer>(l)),
                       ratio(self[l], budget_ns), "ratio"});
    return out;
}

const char *
throughputName(const Workload &workload)
{
    const std::string unit = workload.workUnit();
    if (unit == "records")
        return "records_per_s";
    if (unit == "hops")
        return "hops_per_s";
    return "wire_intervals_per_s";
}

struct WorkloadResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
};

WorkloadResult
runWorkload(const std::string &name, const Args &args,
            exec::ThreadPool &pool)
{
    RunOptions options;
    options.seed = args.seed;
    options.work_dir = args.work_dir;
    std::unique_ptr<Workload> workload =
        makeWorkload(name, options, pool);
    if (!workload)
        usage(("unknown workload " + name).c_str());

    std::vector<double> setup_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        workload->setup();
        setup_times.push_back(secondsSince(t0));
    }

    Checker checker;
    RefStore run_ref;
    const RefStore file_ref = loadReference(args.reference, name, args.seed);
    const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
    const PhaseStats untraced = runPhase(*workload, pool, false, untraced_s,
                                         checker, run_ref, file_ref);
    PhaseStats traced;
    if (args.trace) {
        traced = runPhase(*workload, pool, true, args.seconds / 2,
                          checker, run_ref, file_ref);
        if (!args.spans.empty())
            Tracer::writeSpans(args.spans);
    }

    WorkloadResult result;
    result.attempted = untraced.attempted + traced.attempted;
    result.failed = untraced.failed + traced.failed;
    result.correct = result.failed == 0;

    const double setup_s = median(setup_times);
    const double rss = peakRssMb();
    std::printf("workload %s: seed %llu, %u threads, %zu+%zu rounds, "
                "%.2f s untraced%s\n",
                name.c_str(), static_cast<unsigned long long>(args.seed),
                pool.size(), untraced.rounds, traced.rounds,
                untraced.wall_s, args.trace ? " + traced" : "");
    std::printf("  %-22s %16.6g %s\n", throughputName(*workload),
                untraced.throughput(), "1/s");
    std::vector<double> rates = untraced.round_rates;
    std::sort(rates.begin(), rates.end());
    std::printf("  %-22s %s", "round rates", "");
    for (double r : rates)
        std::printf(" %.4g", r);
    std::printf("\n");
    std::printf("  %-22s %16.6g %s\n", "setup_s", setup_s, "s");
    std::printf("  %-22s %16.6g %s\n", "peak_rss_mb", rss, "MB");
    std::printf("  %-22s %16.6g %s (%llu of %llu jobs)\n", "failed_ratio",
                ratio(static_cast<double>(result.failed),
                      static_cast<double>(result.attempted)),
                "ratio", static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));

    if (args.trace) {
        result.metrics =
            layerMetrics(*workload, untraced, traced, pool.size(), checker);
        for (const Metric &metric : result.metrics)
            std::printf("  %-28s %16.6g %s\n", metric.name.c_str(),
                        metric.value, metric.unit.c_str());
    } else {
        result.metrics = {
            {"work_per_s", untraced.throughput(), "1/s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", rss, "MB"},
        };
    }

    if (!args.emit_reference.empty()) {
        std::ofstream ref(args.emit_reference, std::ios::app);
        for (const auto &[key, e] : run_ref) {
            char value[48];
            if (e.is_count)
                std::snprintf(value, sizeof value, "%llu",
                              static_cast<unsigned long long>(e.count));
            else
                std::snprintf(value, sizeof value, "%.17g", e.value);
            ref << name << '\t' << args.seed << '\t' << key << '\t'
                << (e.is_count ? 'c' : 'v') << '\t' << value << '\n';
        }
    }
    return result;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Library warn()/inform() lines, counted instead of printed: the
 *  robust paths warn once per job, which would flood the output. */
std::atomic<uint64_t> library_warnings{0};

void
countingLogHook(LogLevel level, const std::string &message)
{
    if (level == LogLevel::Warn || level == LogLevel::Inform) {
        if (library_warnings.fetch_add(1) == 0)
            std::fprintf(stderr, "first library message: %s\n",
                         message.c_str());
        return;
    }
    std::fprintf(stderr, "%s\n", message.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    setAbortOnError(false);
    setLogHook(countingLogHook);
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    exec::ThreadPool pool(threads);

    std::vector<std::string> names;
    if (args.workload == "all")
        names.assign(std::begin(kWorkloads), std::end(kWorkloads));
    else
        names.push_back(args.workload);

    WorkloadResult total;
    for (const std::string &name : names) {
        WorkloadResult r = runWorkload(name, args, pool);
        total.correct = total.correct && r.correct;
        total.attempted += r.attempted;
        total.failed += r.failed;
        for (Metric &metric : r.metrics) {
            if (names.size() > 1)
                metric.name = name + "." + metric.name;
            total.metrics.push_back(metric);
        }
    }

    std::string json = "{\"correct\": ";
    json += total.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(total.attempted);
    json += ", \"failed\": " + std::to_string(total.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < total.metrics.size(); ++i) {
        const Metric &metric = total.metrics[i];
        json += (i ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
            jsonNumber(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
    }
    json += "}}";
    if (library_warnings.load() > 0)
        std::printf("library messages suppressed: %llu\n",
                    static_cast<unsigned long long>(library_warnings.load()));
    std::printf("%s\n", json.c_str());
    return 0;
}
