#include "sim/pipeline.hh"

#include <algorithm>
#include <string>

#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace nanobus {

SimPipeline::SimPipeline(TwinBusSimulator &twin,
                         exec::ThreadPool &pool)
    : SimPipeline(twin, pool, Config())
{
}

SimPipeline::SimPipeline(TwinBusSimulator &twin,
                         exec::ThreadPool &pool,
                         const Config &config)
    : twin_(twin), pool_(pool), config_(config)
{
    if (config_.batch_size == 0)
        fatal("SimPipeline: batch size must be positive");
}

Result<uint64_t>
SimPipeline::run(TraceSource &source)
{
    resume_base_ = 0;
    if (config_.resume && !config_.checkpoint_path.empty()) {
        Result<SimCheckpoint> checkpoint =
            loadTwinCheckpoint(config_.checkpoint_path, twin_);
        if (!checkpoint.ok())
            return checkpoint.error();
        // Skip the record prefix the checkpoint already covers.
        // Batch boundaries are a pure function of (source contents,
        // batch_size), and the checkpoint cursor always sits on one,
        // so the first fresh batch below starts exactly where the
        // interrupted run's next batch would have.
        TraceRecord record;
        for (uint64_t i = 0; i < checkpoint.value().records; ++i) {
            if (!source.next(record)) { // NOLINT(raw-trace-next)
                return Result<uint64_t>::failure(
                    ErrorCode::InvalidArgument,
                    "resume: checkpoint covers " +
                        std::to_string(checkpoint.value().records) +
                        " records but the trace ended after " +
                        std::to_string(i));
            }
        }
        resume_base_ = checkpoint.value().records;
    }
    if (config_.prefetch) {
        PrefetchReader reader(source, pool_, config_.batch_size);
        return runBatches(reader);
    }
    BatchReader reader(source, config_.batch_size);
    return runBatches(reader);
}

Result<uint64_t>
SimPipeline::runBatches(BatchSource &batches)
{
    uint64_t count = 0;
    uint64_t batches_done = 0;
    const bool checkpointing = !config_.checkpoint_path.empty() &&
        config_.checkpoint_every_batches > 0;
    // An empty stream must leave the buses where they are (finish
    // with the current cycle), matching the per-record loop. On a
    // resumed run the restored buses already sit at the checkpoint
    // cycle, so an already-exhausted source finishes where the
    // interrupted run stood.
    uint64_t last_cycle =
        std::max(twin_.instructionBus().currentCycle(),
                 twin_.dataBus().currentCycle());
    for (;;) {
        Result<RecordBatch> next = batches.nextBatch();
        if (!next.ok())
            return next.error();
        const RecordBatch batch = next.value();
        if (batch.empty())
            break;

        // Ingest: split into the per-bus SoA slices. Each bus sees
        // exactly the subsequence per-record routing would hand it.
        ia_batch_.clear();
        da_batch_.clear();
        scatterByKind(batch, ia_batch_, da_batch_);
        count += batch.size();
        last_cycle = batch[batch.size() - 1].cycle;

        // Encode + energy/interval stages, inline on this thread:
        // a packed batch costs less than handing a bus to another
        // worker, and inline each bus's count state stays on one
        // core. The prefetch fill for the next batch proceeds on
        // the pool meanwhile.
        twin_.instructionBus().transmitBatch(ia_batch_);
        twin_.dataBus().transmitBatch(da_batch_);

        ++batches_done;
        if (checkpointing &&
            batches_done % config_.checkpoint_every_batches == 0) {
            // The twin is at a batch boundary with every record up
            // to `count` fully applied — exactly the state a resumed
            // run reconstructs. finish() has not run, matching the
            // mid-stream state of an uninterrupted run.
            Status saved = saveTwinCheckpoint(
                config_.checkpoint_path, twin_,
                SimCheckpoint{resume_base_ + count, last_cycle});
            if (!saved.ok())
                return saved.error();
        }
    }
    twin_.finish(last_cycle);
    return resume_base_ + count;
}

} // namespace nanobus
