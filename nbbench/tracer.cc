#include "tracer.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace nbbench {

namespace {

struct Frame
{
    SpanId id;
    int64_t start_ns;
    int64_t child_ns;
    int32_t record;
    uint32_t job;
};

struct ThreadState
{
    unsigned thread = 0;
    std::vector<Frame> stack;
    std::array<SpanAggregate, kSpanKinds> agg{};
    std::vector<SpanRecord> records;
    /** Time covered by outermost spans. */
    int64_t root_ns = 0;
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<ThreadState>> registry;

ThreadState &
threadState()
{
    thread_local ThreadState *state = nullptr;
    if (!state) {
        std::lock_guard<std::mutex> lock(registry_mutex);
        registry.push_back(std::make_unique<ThreadState>());
        state = registry.back().get();
        state->thread = static_cast<unsigned>(registry.size() - 1);
        state->stack.reserve(16);
    }
    return *state;
}

struct SpanInfo
{
    const char *name;
    Layer layer;
};

constexpr SpanInfo kSpanInfo[kSpanKinds] = {
    {"bench.job", Layer::Bench},
    {"extraction.from_maxwell", Layer::Extraction},
    {"trace.synth", Layer::Trace},
    {"trace.next", Layer::Trace},
    {"sim.split", Layer::Sim},
    {"sim.checkpoint", Layer::Sim},
    {"encoding.encode", Layer::Encoding},
    {"energy.step", Layer::Energy},
    {"fabric.bus_build", Layer::Fabric},
    {"thermal.build", Layer::Thermal},
    {"thermal.advance", Layer::Thermal},
    {"thermal.steady", Layer::Thermal},
    {"thermal.restore", Layer::Thermal},
    {"cache.access", Layer::Cache},
    {"fabric.build", Layer::Fabric},
    {"fabric.run", Layer::Fabric},
    {"fabric.summarize", Layer::Fabric},
    {"fabric.transmit", Layer::Fabric},
};

} // anonymous namespace

std::atomic<bool> Tracer::enabled_{false};

const char *
layerName(Layer layer)
{
    static const char *const names[kLayers] = {
        "bench", "extraction", "trace", "sim", "encoding",
        "energy", "fabric", "thermal", "cache", "exec"};
    return names[static_cast<size_t>(layer)];
}

const char *
spanName(SpanId id)
{
    return kSpanInfo[static_cast<size_t>(id)].name;
}

Layer
spanLayer(SpanId id)
{
    return kSpanInfo[static_cast<size_t>(id)].layer;
}

void
DurationHistogram::add(int64_t ns)
{
    size_t bucket = 0;
    if (ns > 1) {
        const double b = std::log2(static_cast<double>(ns)) * 16.0;
        bucket = std::min(kBuckets - 1, static_cast<size_t>(b));
    }
    ++buckets_[bucket];
    ++count_;
}

void
DurationHistogram::merge(const DurationHistogram &other)
{
    for (size_t i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

double
DurationHistogram::quantileNs(double q) const
{
    if (count_ == 0)
        return 0.0;
    // Rank of the q-quantile sample, 1-based; report the bucket's
    // geometric midpoint (resolution 2^(1/16) ~ 4.4%).
    const double rank =
        std::max(1.0, std::ceil(q * static_cast<double>(count_)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (static_cast<double>(seen) >= rank)
            return std::exp2((static_cast<double>(i) + 0.5) / 16.0);
    }
    return std::exp2(static_cast<double>(kBuckets) / 16.0);
}

void
SpanAggregate::merge(const SpanAggregate &other)
{
    count += other.count;
    total_ns += other.total_ns;
    self_ns += other.self_ns;
    hist.merge(other.hist);
    self_hist.merge(other.self_hist);
}

void
Tracer::begin(SpanId id, uint32_t job)
{
    ThreadState &state = threadState();
    const uint32_t inherited =
        state.stack.empty() ? job : state.stack.back().job;
    const uint32_t span_job = id == SpanId::Job ? job : inherited;
    int32_t record = -1;
    if (state.records.size() < kRecordCap) {
        SpanRecord r;
        r.id = id;
        r.job = span_job;
        r.parent = state.stack.empty() ? -1 : state.stack.back().record;
        record = static_cast<int32_t>(state.records.size());
        state.records.push_back(r);
    }
    // Read the clock last so the bookkeeping above is charged to the
    // parent, not to this span.
    state.stack.push_back(Frame{id, nowNs(), 0, record, span_job});
}

void
Tracer::end()
{
    const int64_t now = nowNs();
    ThreadState &state = threadState();
    const Frame frame = state.stack.back();
    state.stack.pop_back();
    const int64_t duration = now - frame.start_ns;
    SpanAggregate &agg = state.agg[static_cast<size_t>(frame.id)];
    ++agg.count;
    agg.total_ns += duration;
    agg.self_ns += duration - frame.child_ns;
    agg.hist.add(duration);
    agg.self_hist.add(duration - frame.child_ns);
    if (frame.record >= 0) {
        SpanRecord &r =
            state.records[static_cast<size_t>(frame.record)];
        r.start_ns = frame.start_ns;
        r.end_ns = now;
    }
    if (!state.stack.empty())
        state.stack.back().child_ns += duration;
    else
        state.root_ns += duration;
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    for (auto &state : registry) {
        state->agg = {};
        state->records.clear();
        state->root_ns = 0;
    }
}

std::array<SpanAggregate, kSpanKinds>
Tracer::aggregate()
{
    std::array<SpanAggregate, kSpanKinds> total{};
    std::lock_guard<std::mutex> lock(registry_mutex);
    for (auto &state : registry)
        for (size_t i = 0; i < kSpanKinds; ++i)
            total[i].merge(state->agg[i]);
    return total;
}

int64_t
Tracer::rootNs()
{
    int64_t total = 0;
    std::lock_guard<std::mutex> lock(registry_mutex);
    for (auto &state : registry)
        total += state->root_ns;
    return total;
}

size_t
Tracer::writeSpans(const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return 0;
    std::fprintf(out, "thread,index,name,start_ns,end_ns,parent,job\n");
    size_t written = 0;
    std::lock_guard<std::mutex> lock(registry_mutex);
    for (auto &state : registry) {
        for (size_t i = 0; i < state->records.size(); ++i) {
            const SpanRecord &r = state->records[i];
            std::fprintf(out, "%u,%zu,%s,%lld,%lld,%d,%u\n",
                         state->thread, i, spanName(r.id),
                         static_cast<long long>(r.start_ns),
                         static_cast<long long>(r.end_ns), r.parent,
                         r.job);
            ++written;
        }
    }
    std::fclose(out);
    return written;
}

} // namespace nbbench
