/**
 * @file
 * google-benchmark micro-benchmarks of the model components: the
 * throughput numbers that bound how long full paper-scale (300M
 * cycle) simulations take.
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "encoding/encoder.hh"
#include "energy/bus_energy.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "extraction/bem.hh"
#include "la/lu.hh"
#include "sim/experiment.hh"
#include "thermal/network.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

void
BM_EnergyTransition(benchmark::State &state)
{
    unsigned radius = static_cast<unsigned>(state.range(0));
    BusEnergyModel::Config config;
    config.coupling_radius = radius;
    BusEnergyModel model(
        tech130, CapacitanceMatrix::analytical(tech130, 32), config);
    Rng rng(1);
    uint64_t word = 0;
    for (auto _ : state) {
        word ^= rng.next() & 0xff; // address-like low activity
        benchmark::DoNotOptimize(model.step(word));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnergyTransition)->Arg(0)->Arg(1)->Arg(4)->Arg(31);

void
BM_Encoder(benchmark::State &state)
{
    auto scheme = static_cast<EncodingScheme>(state.range(0));
    auto encoder = makeEncoder(scheme, 32);
    encoder->reset(0);
    uint64_t addr = 0x10000;
    Rng rng(2);
    for (auto _ : state) {
        addr = rng.chance(0.8) ? addr + 4 : rng.next() & 0xffffffff;
        benchmark::DoNotOptimize(encoder->encode(addr));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(schemeName(scheme));
}
BENCHMARK(BM_Encoder)
    ->Arg(static_cast<int>(EncodingScheme::Unencoded))
    ->Arg(static_cast<int>(EncodingScheme::BusInvert))
    ->Arg(static_cast<int>(EncodingScheme::OddEvenBusInvert))
    ->Arg(static_cast<int>(EncodingScheme::CouplingDrivenBusInvert));

void
BM_SyntheticCpu(benchmark::State &state)
{
    SyntheticCpu cpu(benchmarkProfile("eon"), 3, 0);
    TraceRecord r;
    // Measures single-record generator cost by design.
    for (auto _ : state) {
        cpu.next(r); // NOLINT(raw-trace-next)
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticCpu);

void
BM_ThermalInterval(benchmark::State &state)
{
    // One 100K-cycle interval advance of a 33-wire network.
    ThermalConfig config;
    config.stack_mode = StackMode::Dynamic;
    config.delta_theta = Kelvin{20.0};
    ThermalNetwork net(tech130, 33, config);
    net.reset(Kelvin{318.15});
    std::vector<double> power(33, 0.2);
    const Seconds interval = 100000.0 / tech130.f_clk;
    for (auto _ : state) {
        net.advance(power, interval);
        benchmark::DoNotOptimize(net.maxTemperature());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThermalInterval);

void
BM_CacheHierarchy(benchmark::State &state)
{
    CacheHierarchy hierarchy;
    SyntheticCpu cpu(benchmarkProfile("mcf"), 4, 0);
    TraceRecord r;
    // Measures single-record access cost by design.
    for (auto _ : state) {
        cpu.next(r); // NOLINT(raw-trace-next)
        hierarchy.access(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchy);

void
BM_FullPipelineCycle(benchmark::State &state)
{
    BusSimConfig config;
    config.data_width = 32;
    config.interval_cycles = 100000;
    config.thermal.stack_mode = StackMode::Dynamic;
    TwinBusSimulator twin(tech130, config);
    SyntheticCpu cpu(benchmarkProfile("swim"), 5, 0);
    TraceRecord r;
    // Measures single-record accept() cost (the per-record baseline
    // perf_pipeline compares the batched path against).
    for (auto _ : state) {
        cpu.next(r); // NOLINT(raw-trace-next)
        twin.accept(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPipelineCycle);

void
BM_BemExtraction(benchmark::State &state)
{
    unsigned wires = static_cast<unsigned>(state.range(0));
    BusGeometry g = BusGeometry::forTechnology(tech130, wires);
    BemExtractor::Options opts;
    opts.panels_per_width = 6;
    for (auto _ : state) {
        BemExtractor extractor(g, opts);
        benchmark::DoNotOptimize(extractor.extract());
    }
}
BENCHMARK(BM_BemExtraction)->Arg(5)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_LuFactor(benchmark::State &state)
{
    // The dense factorization behind BEM extraction; 1584 is the
    // panel count of a spec_sweep bus. Threads run the U12 solves and
    // trailing updates, with the extractor's chunk grain.
    const auto n = static_cast<size_t>(state.range(0));
    exec::ThreadPool pool(static_cast<unsigned>(state.range(1)));
    auto on_pool = [&pool](size_t count,
                           LuFactorization::RangeBody body) {
        exec::parallelFor(pool, count, body, 64);
    };
    Rng rng(3);
    Matrix a(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
    for (auto _ : state) {
        LuFactorization lu(a, on_pool);
        benchmark::DoNotOptimize(lu.determinant());
    }
    const double flops = 2.0 / 3.0 * static_cast<double>(n) *
        static_cast<double>(n) * static_cast<double>(n);
    state.counters["GFLOP"] = benchmark::Counter(
        flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LuFactor)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{256, 1584}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // anonymous namespace
} // namespace nanobus
