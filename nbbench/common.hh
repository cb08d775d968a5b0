/**
 * @file
 * Shared vocabulary of the nanobus benchmark: run options, the
 * per-job output record the correctness check compares, and the
 * Workload interface every workload implements.
 */

#ifndef NBBENCH_COMMON_HH
#define NBBENCH_COMMON_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hh"

namespace nbbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Settings of one benchmark run. */
struct RunOptions
{
    uint64_t seed = 1;
    /** Scratch directory for trace files and checkpoints. */
    std::string work_dir;
};

/**
 * What one job produced. `counts` are exact simulated statistics;
 * `values` are energies [J] and temperatures [K], compared within
 * kValueTolerance. `layer` carries per-layer counters (words,
 * calls, closes, ...) summed into the traced run's metrics.
 */
struct JobOutput
{
    std::string label;
    /** The job ran and passed its own sanity checks. */
    bool ok = true;
    std::string error;
    unsigned attempts = 1;
    /** Units of the workload's throughput metric this job did. */
    double work = 0.0;
    /** Host wall-clock of the job [s]. */
    double wall_s = 0.0;
    std::vector<std::pair<std::string, uint64_t>> counts;
    std::vector<std::pair<std::string, double>> values;
    std::map<std::string, double> layer;

    void count(const std::string &key, uint64_t v)
    {
        counts.emplace_back(key, v);
    }
    void value(const std::string &key, double v)
    {
        values.emplace_back(key, v);
    }
    /** Record a failed physical-sanity assertion. */
    void fail(const std::string &why)
    {
        if (ok)
            error = why;
        ok = false;
    }
    /** Assert an energy is finite and non-negative, then keep it. */
    void energy(const std::string &key, double joules)
    {
        if (!std::isfinite(joules) || joules < 0.0)
            fail(key + " is not a finite non-negative energy");
        value(key, joules);
    }
};

/** Relative tolerance on energies and temperatures. */
constexpr double kValueTolerance = 1e-9;

/** One round: every job of the workload, once. */
struct RoundResult
{
    std::vector<JobOutput> jobs;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Name of the unit `JobOutput::work` counts. */
    virtual const char *workUnit() const = 0;
    /** Build every input a round consumes; may be called again
     *  (the last call's inputs are the ones used). */
    virtual void setup() = 0;
    /** Run every job once; `traced` selects the span-instrumented
     *  path, which must reproduce the untraced outputs. */
    virtual RoundResult round(bool traced) = 0;
    /** True when a round is a batch of pool jobs (each job one
     *  lane); false when one call on the caller's thread fans out
     *  over the pool itself. */
    virtual bool poolJobs() const { return true; }
    /** Per-layer metrics of the last setup() call. */
    virtual std::map<std::string, double> setupMetrics() const
    {
        return {};
    }
};

std::unique_ptr<Workload> makeSpecSweep(const RunOptions &options,
                                        nanobus::exec::ThreadPool &pool);
std::unique_ptr<Workload> makeL2Online(const RunOptions &options,
                                       nanobus::exec::ThreadPool &pool);
std::unique_ptr<Workload> makeFabricHotspot(
    const RunOptions &options, nanobus::exec::ThreadPool &pool);
std::unique_ptr<Workload> makeThermalWide(
    const RunOptions &options, nanobus::exec::ThreadPool &pool);

/** Per-job seed derived from the run seed (splitmix64). */
inline uint64_t
deriveSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace nbbench

#endif // NBBENCH_COMMON_HH
