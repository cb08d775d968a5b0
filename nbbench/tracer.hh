/**
 * @file
 * In-memory span tracer for the benchmark's traced run.
 *
 * A span wraps one call the benchmark makes into a library layer's
 * public function. Each thread keeps its own span stack, so a span's
 * self time (its duration minus the time its children cover) is
 * known the moment it closes and is folded into per-span aggregates:
 * count, total, self, and a log-bucket duration histogram for
 * percentiles. The first kRecordCap spans of each thread are also
 * kept verbatim (name, start, end, parent, job id) and written out
 * when the benchmark ends.
 *
 * When tracing is off a Span costs one relaxed load and a branch.
 */

#ifndef NBBENCH_TRACER_HH
#define NBBENCH_TRACER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace nbbench {

/** The library module a span's self time is charged to. */
enum class Layer : uint8_t {
    Bench,
    Extraction,
    Trace,
    Sim,
    Encoding,
    Energy,
    Fabric,
    Thermal,
    Cache,
    Exec,
    Count,
};

const char *layerName(Layer layer);

/** Every call site the traced run wraps. */
enum class SpanId : uint8_t {
    Job,              // one job body (benchmark glue)
    FromMaxwell,      // CapacitanceMatrix::tryFromMaxwell
    TraceSynth,       // SyntheticCpu::next
    TraceNext,        // BatchSource::nextBatch
    SimSplit,         // scatterByKind
    SimCheckpoint,    // snapshot encode + saveSnapshotFile
    Encode,           // BusEncoder::encodeBatch
    EnergyStep,       // BusEnergyModel::stepBatch
    BusBuild,         // encoder / energy model construction
    ThermalBuild,     // ThermalNetwork construction
    ThermalAdvance,   // ThermalNetwork::advanceChecked
    ThermalSteady,    // ThermalNetwork::steadyState
    ThermalRestore,   // ThermalNetwork::restoreSnapshotState
    CacheAccess,      // CacheHierarchy::access
    FabricBuild,      // BusFabric construction
    FabricRun,        // BusFabric::run
    FabricSummarize,  // BusFabric::summarize / totals
    BusTransmit,      // one BusSimulator transmit / transmitBatch
    Count,
};

const char *spanName(SpanId id);
Layer spanLayer(SpanId id);

constexpr size_t kSpanKinds = static_cast<size_t>(SpanId::Count);
constexpr size_t kLayers = static_cast<size_t>(Layer::Count);

/** Log-bucket duration histogram: 16 buckets per power of two. */
class DurationHistogram
{
  public:
    static constexpr size_t kBuckets = 16 * 42;

    void add(int64_t ns);
    void merge(const DurationHistogram &other);
    /** Duration [ns] at quantile q in [0, 1]; 0 when empty. */
    double quantileNs(double q) const;

  private:
    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
};

/** Aggregate of every closed span of one kind. */
struct SpanAggregate
{
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    /** Whole-span durations. */
    DurationHistogram hist;
    /** Self times: a span that waits on the pool may run other jobs
     *  inside it, so its whole duration can include foreign work. */
    DurationHistogram self_hist;

    void merge(const SpanAggregate &other);
};

/** One kept span, as written to the span file. */
struct SpanRecord
{
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /** Index of the parent in the same thread's record list, or -1
     *  (also -1 when the parent was not kept). */
    int32_t parent = -1;
    uint32_t job = 0;
    SpanId id = SpanId::Job;
};

class Tracer
{
  public:
    /** Spans kept verbatim per thread. */
    static constexpr size_t kRecordCap = 50000;

    static bool enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    static void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Drop all aggregates and kept spans (call while no thread is
     *  inside a span). */
    static void reset();

    /** Sum of every thread's aggregates, indexed by SpanId. */
    static std::array<SpanAggregate, kSpanKinds> aggregate();

    /** Total time covered by outermost spans, over all threads. */
    static int64_t rootNs();

    /** Write every kept span as CSV; returns spans written. */
    static size_t writeSpans(const std::string &path);

    static int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    static void begin(SpanId id, uint32_t job);
    static void end();

  private:
    static std::atomic<bool> enabled_;
};

/** RAII span; a no-op when tracing is off at construction. */
class Span
{
  public:
    explicit Span(SpanId id, uint32_t job = 0)
        : active_(Tracer::enabled())
    {
        if (active_)
            Tracer::begin(id, job);
    }
    ~Span()
    {
        if (active_)
            Tracer::end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_;
};

} // namespace nbbench

#endif // NBBENCH_TRACER_HH
