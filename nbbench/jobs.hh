/**
 * @file
 * Closed-loop job batches: every job of a round is handed to an
 * exec::BasicSupervisor on the benchmark's pool, so a job starts as
 * soon as a pool slot frees and the round ends when the last job
 * does. A job that returns an error, throws, or fails its own checks
 * counts as failed.
 */

#ifndef NBBENCH_JOBS_HH
#define NBBENCH_JOBS_HH

#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common.hh"
#include "exec/supervisor.hh"
#include "tracer.hh"
#include "util/logging.hh"

namespace nbbench {

/** Supervisor payload: the job's output plus the execution counters
 *  the supervisor fills in. */
struct JobReport
{
    nanobus::exec::ExecStats exec;
    JobOutput out;
};

struct JobBody
{
    std::string label;
    std::function<nanobus::Result<JobOutput>()> run;
};

inline RoundResult
runSupervised(nanobus::exec::ThreadPool &pool,
              const std::vector<JobBody> &bodies)
{
    using namespace nanobus;
    std::vector<exec::BasicSupervisedJob<JobReport>> jobs;
    jobs.reserve(bodies.size());
    for (size_t i = 0; i < bodies.size(); ++i) {
        jobs.push_back({bodies[i].label,
                        [&bodies, i](exec::JobContext &context)
                            -> Result<JobReport> {
                            if (!context.pulse())
                                return Error{ErrorCode::BudgetExhausted,
                                             "aborted before start"};
                            Span span(SpanId::Job,
                                      static_cast<uint32_t>(i));
                            const auto t0 = Clock::now();
                            Result<JobOutput> result = Error{};
                            try {
                                result = bodies[i].run();
                            } catch (const FatalError &e) {
                                result = Error{ErrorCode::InvalidArgument,
                                               e.message};
                            } catch (const std::exception &e) {
                                result = Error{ErrorCode::InvalidArgument,
                                               e.what()};
                            }
                            (void)context.pulse();
                            if (!result.ok())
                                return result.error();
                            JobReport report;
                            report.out = result.takeValue();
                            report.out.wall_s = secondsSince(t0);
                            return report;
                        }});
    }
    exec::BasicSupervisor<JobReport> supervisor(pool);
    Result<exec::BasicSupervisedReport<JobReport>> batch =
        supervisor.run(jobs);
    RoundResult round;
    round.jobs.resize(bodies.size());
    for (size_t i = 0; i < bodies.size(); ++i) {
        JobOutput &out = round.jobs[i];
        if (!batch.ok()) {
            out.fail("supervisor: " + batch.error().describe());
        } else {
            const exec::JobRecord &record = batch.value().records[i];
            if (record.outcome == exec::JobOutcome::Ok ||
                record.outcome == exec::JobOutcome::Retried) {
                out = std::move(batch.value().reports[i].out);
            } else {
                out.fail(std::string(exec::jobOutcomeName(
                             record.outcome)) +
                         ": " + record.error.describe());
            }
            out.attempts = record.attempts;
        }
        out.label = bodies[i].label;
    }
    return round;
}

} // namespace nbbench

#endif // NBBENCH_JOBS_HH
