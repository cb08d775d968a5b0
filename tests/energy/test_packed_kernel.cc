/**
 * @file
 * Packed transition kernel pins (energy/packed.hh + the Packed
 * branches of BusEnergyModel):
 *
 *  - exact integer counts against a naive per-word reference, across
 *    widths straddling the 64-cycle lane boundary and run lengths
 *    straddling block boundaries;
 *  - stale-tail regression: garbage bits above the bus width — in
 *    the input words, in the unused high bits of a tail block, or
 *    left over after reset() — must never leak into the counts;
 *  - bitwise split-invariance of the packed path under any chunking
 *    of the same word stream;
 *  - packed-vs-scalar model agreement to rounding, with the final
 *    transition's lastBreakdown()/lastLineEnergy() bitwise equal;
 *  - PackedState capture/restore round-trips and the error paths
 *    (shape mismatches, restoreAccumulation under Packed);
 *  - the short-run (word-by-word) count path against the naive
 *    reference, alone and interleaved with block runs;
 *  - derive-on-read accessors bitwise equal to an eager derivation
 *    from the same counts, including after restore and reset;
 *  - interval energies bitwise equal to the same eager derivation
 *    over the count deltas, and empty intervals deriving +0.0 (the
 *    simulator's interval close skips the derivation for them);
 *  - the kernel defaults of the simulator and the standalone model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "energy/bus_energy.hh"
#include "energy/packed.hh"
#include "energy/transition.hh"
#include "fabric/bus_sim.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusEnergyModel
makeModel(unsigned width, unsigned radius, TransitionKernel kernel,
          uint64_t initial_word = 0)
{
    BusEnergyModel::Config config;
    config.coupling_radius = radius;
    config.kernel = kernel;
    config.initial_word = initial_word;
    return BusEnergyModel(
        tech130, CapacitanceMatrix::analytical(tech130, width),
        config);
}

/** Line delta of the transition prev->next: -1, 0, or +1. */
int
lineDelta(uint64_t prev, uint64_t next, unsigned i)
{
    const int before = bitOf(prev, i) ? 1 : 0;
    const int after = bitOf(next, i) ? 1 : 0;
    return after - before;
}

/** Naive per-word counts: the ground truth the packed block kernel
 *  must reproduce exactly. */
struct NaiveCounts
{
    std::vector<uint64_t> self;
    /** Σ couplingFactor(v_i, v_j) over all cycles, per (i, j). */
    std::vector<uint64_t> coupling_sum; // width x width, row-major

    NaiveCounts(unsigned width, uint64_t initial,
                std::span<const uint64_t> words)
        : self(width, 0),
          coupling_sum(static_cast<size_t>(width) * width, 0)
    {
        const uint64_t mask = lowMask(width);
        uint64_t prev = initial & mask;
        for (uint64_t raw : words) {
            const uint64_t next = raw & mask;
            for (unsigned i = 0; i < width; ++i) {
                const int vi = lineDelta(prev, next, i);
                if (vi == 0)
                    continue;
                ++self[i];
                for (unsigned j = 0; j < width; ++j) {
                    if (j == i)
                        continue;
                    const int vj = lineDelta(prev, next, j);
                    coupling_sum[static_cast<size_t>(i) * width + j]
                        += static_cast<uint64_t>(vi * vi - vi * vj);
                }
            }
            prev = next;
        }
    }
};

void
expectCountsMatchNaive(const PackedTransitionCounts &counts,
                       const NaiveCounts &naive, unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        EXPECT_EQ(counts.selfCount(i), naive.self[i]) << "line " << i;
    for (unsigned i = 0; i < width; ++i) {
        for (unsigned j = 0; j < width; ++j) {
            if (i == j)
                continue;
            const unsigned d = i < j ? j - i : i - j;
            if (d > counts.storedRadius())
                continue;
            const int64_t got =
                static_cast<int64_t>(counts.selfCount(i)) +
                counts.pairDeviationAt(i, j);
            const uint64_t want =
                naive.coupling_sum[static_cast<size_t>(i) * width +
                                   j];
            EXPECT_EQ(got, static_cast<int64_t>(want))
                << "pair (" << i << ", " << j << ")";
        }
    }
}

TEST(PackedCounts, MatchNaiveAcrossWidthsAndRunLengths)
{
    Rng rng(0xbead5);
    for (unsigned width : {1u, 5u, 31u, 32u, 33u, 63u, 64u}) {
        for (size_t run : {size_t(1), size_t(63), size_t(64),
                           size_t(65), size_t(129)}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " run=" << run);
            std::vector<uint64_t> words(run);
            for (uint64_t &w : words)
                w = rng.next();
            const uint64_t initial = rng.next();
            const unsigned radius = width == 1 ? 0 : width / 2;
            PackedTransitionCounts counts(width, radius, initial);
            counts.process(words);
            expectCountsMatchNaive(
                counts, NaiveCounts(width, initial, words), width);
            EXPECT_EQ(counts.prevWord(),
                      words.back() & lowMask(width));
        }
    }
}

TEST(PackedCounts, RadiusZeroStoresNoPairs)
{
    Rng rng(0x0);
    std::vector<uint64_t> words(100);
    for (uint64_t &w : words)
        w = rng.next();
    PackedTransitionCounts counts(16, 0, 0);
    counts.process(words);
    EXPECT_EQ(counts.storedRadius(), 0u);
    EXPECT_TRUE(counts.pairDeviations().empty());
    EXPECT_EQ(counts.pairDeviationAt(3, 4), 0);
    expectCountsMatchNaive(counts, NaiveCounts(16, 0, words), 16);
}

TEST(PackedCounts, SplitInvarianceIsExact)
{
    Rng rng(0x5bead);
    const unsigned width = 33;
    const size_t n = 300;
    std::vector<uint64_t> words(n);
    for (uint64_t &w : words)
        w = rng.next();

    PackedTransitionCounts whole(width, width - 1, 42);
    whole.process(words);

    for (size_t chunk : {size_t(1), size_t(7), size_t(64),
                         size_t(65), size_t(299)}) {
        SCOPED_TRACE(testing::Message() << "chunk=" << chunk);
        PackedTransitionCounts split(width, width - 1, 42);
        for (size_t k = 0; k < n; k += chunk) {
            const size_t len = std::min(chunk, n - k);
            split.process(
                std::span<const uint64_t>(words).subspan(k, len));
        }
        EXPECT_EQ(split.prevWord(), whole.prevWord());
        for (unsigned i = 0; i < width; ++i)
            EXPECT_EQ(split.selfCount(i), whole.selfCount(i));
        const std::span<const int64_t> a = split.pairDeviations();
        const std::span<const int64_t> b = whole.pairDeviations();
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k)
            EXPECT_EQ(a[k], b[k]) << "slot " << k;
    }
}

TEST(PackedCounts, StaleTailGarbageNeverLeaks)
{
    // Three tail hazards at once: input words carrying garbage above
    // the bus width, a tail block shorter than 64 cycles, and a held
    // word whose high bits were garbage when latched. The counts must
    // equal the naive reference over *masked* words in every case.
    Rng rng(0x7a11);
    for (unsigned width : {1u, 31u, 33u, 63u}) {
        SCOPED_TRACE(testing::Message() << "width=" << width);
        const uint64_t garbage = ~lowMask(width);
        std::vector<uint64_t> words(97);
        for (uint64_t &w : words)
            w = rng.next() | garbage; // force every high bit on
        const uint64_t initial = rng.next() | garbage;
        PackedTransitionCounts counts(width, width, initial);
        counts.process(words);
        expectCountsMatchNaive(
            counts, NaiveCounts(width, initial, words), width);
        // The latched word must already be masked — a later block
        // must not see phantom transitions from the garbage bits.
        EXPECT_EQ(counts.prevWord() & garbage, 0u);

        // reset() with a garbage word, then an all-zeros run: any
        // leak shows up as a nonzero self count.
        counts.reset(garbage);
        const std::vector<uint64_t> zeros(130, 0);
        counts.process(zeros);
        for (unsigned i = 0; i < width; ++i)
            EXPECT_EQ(counts.selfCount(i), 0u) << "line " << i;
    }
}

TEST(PackedCounts, ResetCountsKeepsHeldWord)
{
    PackedTransitionCounts counts(8, 7, 0x0f);
    const std::vector<uint64_t> words = {0xf0, 0x0f, 0xf0};
    counts.process(words);
    counts.resetCounts();
    EXPECT_EQ(counts.prevWord(), 0xf0u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(counts.selfCount(i), 0u);
    // Continue from the held word: first transition is f0 -> ff.
    counts.process(std::vector<uint64_t>{0xff});
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(counts.selfCount(i), 1u) << "line " << i;
    for (unsigned i = 4; i < 8; ++i)
        EXPECT_EQ(counts.selfCount(i), 0u) << "line " << i;
}

TEST(PackedCounts, RestoreRejectsShapeMismatch)
{
    PackedTransitionCounts counts(8, 3, 0);
    const std::vector<uint64_t> self_ok(8, 0);
    const std::vector<int64_t> pairs_ok(8 * 3, 0);
    EXPECT_TRUE(counts.restore(0, self_ok, pairs_ok).ok());
    const std::vector<uint64_t> self_bad(7, 0);
    EXPECT_EQ(counts.restore(0, self_bad, pairs_ok).error().code,
              ErrorCode::InvalidArgument);
    const std::vector<int64_t> pairs_bad(8 * 2, 0);
    EXPECT_EQ(counts.restore(0, self_ok, pairs_bad).error().code,
              ErrorCode::InvalidArgument);
}

// ------------------------------------------------------------------ //
// BusEnergyModel under the Packed kernel.

std::vector<uint64_t>
randomWords(Rng &rng, size_t n)
{
    std::vector<uint64_t> words(n);
    for (uint64_t &w : words)
        w = rng.next();
    return words;
}

void
stepAll(BusEnergyModel &model, std::span<const uint64_t> words,
        size_t chunk)
{
    std::vector<double> scratch(model.width(), 0.0);
    EnergyBreakdown acc;
    for (size_t k = 0; k < words.size(); k += chunk) {
        const size_t len = std::min(chunk, words.size() - k);
        model.stepBatch(words.subspan(k, len), scratch, acc);
    }
}

TEST(PackedModel, AgreesWithScalarToRounding)
{
    Rng rng(0xe4e4);
    for (unsigned width : {1u, 16u, 33u, 64u}) {
        for (unsigned radius : {0u, 1u, 64u}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " radius="
                         << radius);
            BusEnergyModel scalar_m =
                makeModel(width, radius, TransitionKernel::Scalar);
            BusEnergyModel packed_m =
                makeModel(width, radius, TransitionKernel::Packed);
            const std::vector<uint64_t> words =
                randomWords(rng, 500);
            stepAll(scalar_m, words, 17);
            stepAll(packed_m, words, 100);

            EXPECT_EQ(packed_m.cycles(), scalar_m.cycles());
            EXPECT_EQ(packed_m.lastWord(), scalar_m.lastWord());
            const double total_s =
                scalar_m.accumulatedTotal().raw();
            const double total_p =
                packed_m.accumulatedTotal().raw();
            EXPECT_NEAR(total_p, total_s,
                        1e-9 * std::abs(total_s));
            for (unsigned i = 0; i < width; ++i) {
                const double a =
                    scalar_m.accumulatedLineEnergy()[i];
                const double b =
                    packed_m.accumulatedLineEnergy()[i];
                EXPECT_NEAR(b, a, 1e-9 * std::abs(a) + 1e-30)
                    << "line " << i;
            }
            // The final transition is re-derived through the same
            // transitionEnergy() path in both kernels: bitwise.
            EXPECT_EQ(packed_m.lastBreakdown().self.raw(),
                      scalar_m.lastBreakdown().self.raw());
            EXPECT_EQ(packed_m.lastBreakdown().coupling.raw(),
                      scalar_m.lastBreakdown().coupling.raw());
            EXPECT_EQ(packed_m.lastLineEnergy(),
                      scalar_m.lastLineEnergy());
        }
    }
}

TEST(PackedModel, SingleStepIsBitwiseScalar)
{
    // One transition accumulates exactly one count per moving line,
    // so the derived energy is the same FP expression the scalar
    // kernel evaluates — bitwise, not just to rounding.
    BusEnergyModel scalar_m =
        makeModel(32, 64, TransitionKernel::Scalar, 0x0fff0fff);
    BusEnergyModel packed_m =
        makeModel(32, 64, TransitionKernel::Packed, 0x0fff0fff);
    const Joules es = scalar_m.step(0xf0f0a5a5);
    const Joules ep = packed_m.step(0xf0f0a5a5);
    EXPECT_EQ(ep.raw(), es.raw());
    EXPECT_EQ(packed_m.accumulatedTotal().raw(),
              scalar_m.accumulatedTotal().raw());
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(packed_m.accumulatedLineEnergy()[i],
                  scalar_m.accumulatedLineEnergy()[i])
            << "line " << i;
}

TEST(PackedModel, SplitInvarianceIsBitwise)
{
    Rng rng(0x1234);
    const std::vector<uint64_t> words = randomWords(rng, 400);
    BusEnergyModel a = makeModel(33, 8, TransitionKernel::Packed);
    BusEnergyModel b = makeModel(33, 8, TransitionKernel::Packed);
    stepAll(a, words, 400);
    for (uint64_t w : words)
        b.step(w);
    EXPECT_EQ(a.accumulatedTotal().raw(),
              b.accumulatedTotal().raw());
    EXPECT_EQ(a.accumulatedLineEnergy(), b.accumulatedLineEnergy());
    EXPECT_EQ(a.lastBreakdown().self.raw(),
              b.lastBreakdown().self.raw());
    EXPECT_EQ(a.lastBreakdown().coupling.raw(),
              b.lastBreakdown().coupling.raw());
}

TEST(PackedModel, IntervalEnergyDerivesDeltas)
{
    Rng rng(0x9a9a);
    const unsigned width = 24;
    BusEnergyModel model =
        makeModel(width, 64, TransitionKernel::Packed);
    BusEnergyModel oracle =
        makeModel(width, 64, TransitionKernel::Packed);

    const std::vector<uint64_t> first = randomWords(rng, 130);
    const std::vector<uint64_t> second = randomWords(rng, 77);

    std::vector<double> scratch(width, 0.0);
    EnergyBreakdown unused;
    model.beginInterval();
    model.stepBatch(first, scratch, unused);
    std::vector<double> interval_lines(width, 0.0);
    EnergyBreakdown interval;
    model.intervalEnergy(interval_lines, interval);

    // Interval 1 alone == a fresh model's whole-run accumulation.
    oracle.stepBatch(first, scratch, unused);
    EXPECT_EQ(interval.self.raw(),
              oracle.accumulatedBreakdown().self.raw());
    EXPECT_EQ(interval.coupling.raw(),
              oracle.accumulatedBreakdown().coupling.raw());
    EXPECT_EQ(interval_lines, oracle.accumulatedLineEnergy());

    // Second interval: only the delta since beginInterval().
    model.beginInterval();
    model.stepBatch(second, scratch, unused);
    model.intervalEnergy(interval_lines, interval);
    // Re-run the second interval on a model primed with interval 1's
    // final word: the delta derivation must match it bitwise.
    BusEnergyModel primed = makeModel(
        width, 64, TransitionKernel::Packed, first.back());
    primed.stepBatch(second, scratch, unused);
    EXPECT_EQ(interval.self.raw(),
              primed.accumulatedBreakdown().self.raw());
    EXPECT_EQ(interval.coupling.raw(),
              primed.accumulatedBreakdown().coupling.raw());
    EXPECT_EQ(interval_lines, primed.accumulatedLineEnergy());

    // An idle interval derives exact zeros.
    model.beginInterval();
    model.intervalEnergy(interval_lines, interval);
    EXPECT_EQ(interval.total().raw(), 0.0);
    for (double e : interval_lines)
        EXPECT_EQ(e, 0.0);
}

TEST(PackedModel, PackedStateRoundTripsBitIdentically)
{
    Rng rng(0xc0de);
    const unsigned width = 40;
    const std::vector<uint64_t> words = randomWords(rng, 333);
    const size_t cut = 150;

    BusEnergyModel uninterrupted =
        makeModel(width, 5, TransitionKernel::Packed);
    stepAll(uninterrupted, words, 64);

    BusEnergyModel half = makeModel(width, 5, TransitionKernel::Packed);
    stepAll(half,
            std::span<const uint64_t>(words).subspan(0, cut), 64);
    const BusEnergyModel::PackedState state =
        half.capturePackedState();

    BusEnergyModel resumed =
        makeModel(width, 5, TransitionKernel::Packed);
    ASSERT_TRUE(resumed.restorePackedState(state).ok());
    EXPECT_EQ(resumed.cycles(), half.cycles());
    EXPECT_EQ(resumed.accumulatedTotal().raw(),
              half.accumulatedTotal().raw());
    EXPECT_EQ(resumed.lastBreakdown().self.raw(),
              half.lastBreakdown().self.raw());
    stepAll(resumed,
            std::span<const uint64_t>(words).subspan(cut), 64);

    EXPECT_EQ(resumed.accumulatedTotal().raw(),
              uninterrupted.accumulatedTotal().raw());
    EXPECT_EQ(resumed.accumulatedLineEnergy(),
              uninterrupted.accumulatedLineEnergy());
    EXPECT_EQ(resumed.cycles(), uninterrupted.cycles());
    EXPECT_EQ(resumed.lastWord(), uninterrupted.lastWord());
}

TEST(PackedModel, RestorePathsRejectMismatches)
{
    BusEnergyModel model = makeModel(16, 3, TransitionKernel::Packed);

    // The scalar restore entry is the wrong door under Packed.
    const std::vector<double> acc_line(16, 0.0);
    EXPECT_EQ(model
                  .restoreAccumulation(0, acc_line, EnergyBreakdown{},
                                       0)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);

    BusEnergyModel::PackedState state = model.capturePackedState();
    state.self.resize(15);
    EXPECT_EQ(model.restorePackedState(state).error().code,
              ErrorCode::InvalidArgument);

    state = model.capturePackedState();
    state.interval_pairs.resize(1);
    EXPECT_EQ(model.restorePackedState(state).error().code,
              ErrorCode::InvalidArgument);

    // A scalar model rejects the packed restore entry.
    BusEnergyModel scalar_m =
        makeModel(16, 3, TransitionKernel::Scalar);
    EXPECT_EQ(
        scalar_m.restorePackedState(model.capturePackedState())
            .error()
            .code,
        ErrorCode::InvalidArgument);
}

TEST(PackedModel, ResetAccumulationClearsCountsAndBaselines)
{
    Rng rng(0xfeed);
    BusEnergyModel model = makeModel(20, 64, TransitionKernel::Packed);
    stepAll(model, randomWords(rng, 100), 50);
    ASSERT_GT(model.accumulatedTotal().raw(), 0.0);
    model.resetAccumulation();
    EXPECT_EQ(model.cycles(), 0u);
    EXPECT_EQ(model.accumulatedTotal().raw(), 0.0);
    std::vector<double> lines(20, 0.0);
    EnergyBreakdown interval;
    model.intervalEnergy(lines, interval);
    EXPECT_EQ(interval.total().raw(), 0.0);
    // The held word survives the reset, so replaying the same words
    // from a fresh model primed with it matches bitwise.
    const uint64_t held = model.lastWord();
    const std::vector<uint64_t> words = randomWords(rng, 100);
    stepAll(model, words, 100);
    BusEnergyModel fresh =
        makeModel(20, 64, TransitionKernel::Packed, held);
    stepAll(fresh, words, 100);
    EXPECT_EQ(model.accumulatedTotal().raw(),
              fresh.accumulatedTotal().raw());
}

TEST(PackedCounts, ShortRunPathMatchesNaive)
{
    // Every run length from 0 up past the short-run threshold, then
    // short and block runs interleaved, all on one counter: the
    // counts after each run must equal the naive reference over the
    // whole stream so far. Words and the initial word carry garbage
    // above the bus width.
    const size_t threshold = PackedTransitionCounts::kShortRunWords;
    std::vector<size_t> runs;
    for (size_t len = 0; len <= threshold + 2; ++len)
        runs.push_back(len);
    for (size_t len : {size_t(70), size_t(1), size_t(129),
                       threshold - 1, size_t(64), threshold,
                       size_t(0), threshold + 1, size_t(65),
                       size_t(2)})
        runs.push_back(len);

    Rng rng(0x5407);
    for (unsigned width : {1u, 31u, 32u, 33u, 63u, 64u}) {
        for (unsigned radius : {0u, 1u, 3u, width - 1}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " radius="
                         << radius);
            const uint64_t initial = rng.next();
            PackedTransitionCounts counts(width, radius, initial);
            std::vector<uint64_t> stream;
            for (size_t len : runs) {
                SCOPED_TRACE(testing::Message() << "run=" << len);
                const std::vector<uint64_t> words =
                    randomWords(rng, len);
                counts.process(words);
                stream.insert(stream.end(), words.begin(),
                              words.end());
                expectCountsMatchNaive(
                    counts, NaiveCounts(width, initial, stream),
                    width);
                EXPECT_EQ(counts.prevWord(),
                          (stream.empty() ? initial : stream.back()) &
                              lowMask(width));
            }
        }
    }
}

/**
 * Eager derivation of whole-run energies from a captured count
 * state, written from the model's public capacitances in the order
 * docs/PIPELINE.md §2a states: per line, self term first, then the
 * coupling terms over the j window in ascending order.
 */
/**
 * Reference derivation: the per-pair indexed loop the model's
 * derivation started from. Whole-run energies from `state`'s counts,
 * or, with `interval`, from their deltas against its interval
 * baseline.
 */
void
eagerDerive(const BusEnergyModel &model,
            const BusEnergyModel::PackedState &state,
            std::vector<double> &lines, EnergyBreakdown &total,
            bool interval = false)
{
    const double half_vdd2 = 0.5 * (tech130.vdd * tech130.vdd).raw();
    const unsigned width = model.width();
    const unsigned radius = model.couplingRadius();
    const unsigned stride = model.packedPairStride();
    lines.assign(width, 0.0);
    total = EnergyBreakdown();
    for (unsigned i = 0; i < width; ++i) {
        const uint64_t n =
            state.self[i] - (interval ? state.interval_self[i] : 0);
        const double e_self = half_vdd2 *
            model.selfCapacitance(i).raw() * static_cast<double>(n);
        double coupling_sum = 0.0;
        const unsigned j_lo = i >= radius ? i - radius : 0;
        const unsigned j_hi = std::min(width - 1, i + radius);
        for (unsigned j = j_lo; j <= j_hi; ++j) {
            if (j == i)
                continue;
            const unsigned lo = std::min(i, j);
            const unsigned d = i < j ? j - i : i - j;
            const size_t slot =
                static_cast<size_t>(lo) * stride + (d - 1);
            const int64_t dev = d <= stride
                ? state.pairs[slot] -
                      (interval ? state.interval_pairs[slot] : 0)
                : 0;
            coupling_sum += model.couplingCapacitance(i, j).raw() *
                static_cast<double>(static_cast<int64_t>(n) + dev);
        }
        const double e_coup = half_vdd2 * coupling_sum;
        lines[i] = e_self + e_coup;
        total.self += Joules{e_self};
        total.coupling += Joules{e_coup};
    }
}

void
expectAccessorsMatchEager(const BusEnergyModel &model)
{
    std::vector<double> lines;
    EnergyBreakdown total;
    eagerDerive(model, model.capturePackedState(), lines, total);
    EXPECT_EQ(model.accumulatedLineEnergy(), lines);
    EXPECT_EQ(model.accumulatedBreakdown().self.raw(),
              total.self.raw());
    EXPECT_EQ(model.accumulatedBreakdown().coupling.raw(),
              total.coupling.raw());
    EXPECT_EQ(model.accumulatedTotal().raw(), total.total().raw());
}

/** lastBreakdown()/lastLineEnergy() must describe the transition
 *  from `prev` to `next`, bitwise as the scalar evaluator gives it. */
void
expectLastIs(const BusEnergyModel &model, uint64_t prev,
             uint64_t next)
{
    BusEnergyModel scalar_m = makeModel(
        model.width(), model.couplingRadius(),
        TransitionKernel::Scalar);
    const std::vector<double> want =
        scalar_m.transitionEnergy(prev, next);
    EXPECT_EQ(model.lastLineEnergy(), want);
    EXPECT_EQ(model.lastBreakdown().self.raw(),
              scalar_m.lastBreakdown().self.raw());
    EXPECT_EQ(model.lastBreakdown().coupling.raw(),
              scalar_m.lastBreakdown().coupling.raw());
}

TEST(PackedModel, DeriveOnReadMatchesEagerDerivation)
{
    Rng rng(0xde71);
    for (unsigned width : {1u, 33u, 64u}) {
        for (unsigned radius : {0u, 2u, 64u}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " radius="
                         << radius);
            BusEnergyModel model =
                makeModel(width, radius, TransitionKernel::Packed);
            // Reading before any step derives the empty counts.
            expectAccessorsMatchEager(model);

            // Reads interleaved with short and block runs, and the
            // same stream read only once at the end, agree bitwise.
            BusEnergyModel read_once =
                makeModel(width, radius, TransitionKernel::Packed);
            const std::vector<uint64_t> words =
                randomWords(rng, 300);
            std::vector<double> scratch(width, 0.0);
            EnergyBreakdown unused;
            size_t k = 0;
            for (size_t len : {size_t(1), size_t(5), size_t(100),
                               size_t(3), size_t(191)}) {
                const std::span<const uint64_t> run =
                    std::span<const uint64_t>(words).subspan(k, len);
                model.stepBatch(run, scratch, unused);
                read_once.stepBatch(run, scratch, unused);
                k += len;
                expectAccessorsMatchEager(model);
                const uint64_t prev = k >= 2 ? words[k - 2] : 0;
                expectLastIs(model, prev, words[k - 1]);
            }
            ASSERT_EQ(k, words.size());
            EXPECT_EQ(read_once.accumulatedLineEnergy(),
                      model.accumulatedLineEnergy());
            EXPECT_EQ(read_once.accumulatedTotal().raw(),
                      model.accumulatedTotal().raw());

            // After a restore into a fresh model, before any step.
            BusEnergyModel resumed =
                makeModel(width, radius, TransitionKernel::Packed);
            ASSERT_TRUE(
                resumed.restorePackedState(model.capturePackedState())
                    .ok());
            expectAccessorsMatchEager(resumed);
            expectLastIs(resumed, words[words.size() - 2],
                         words.back());
            EXPECT_EQ(resumed.accumulatedLineEnergy(),
                      model.accumulatedLineEnergy());

            // After a reset: zero counts, zero energies, and the
            // final transition still describes the held word.
            resumed.resetAccumulation();
            expectAccessorsMatchEager(resumed);
            EXPECT_EQ(resumed.accumulatedTotal().raw(), 0.0);
            expectLastIs(resumed, words[words.size() - 2],
                         words.back());
            // A step after the reset derives again on read.
            const std::vector<uint64_t> more = randomWords(rng, 2);
            resumed.stepBatch(more, scratch, unused);
            expectAccessorsMatchEager(resumed);
            expectLastIs(resumed, more[0], more[1]);
        }
    }
}

TEST(PackedModel, IntervalEnergyMatchesReferenceDerivation)
{
    Rng rng(0x1e7a);
    for (unsigned width : {1u, 2u, 31u, 33u, 64u}) {
        for (unsigned radius : {0u, 1u, 3u, width - 1}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " radius="
                         << radius);
            BusEnergyModel model =
                makeModel(width, radius, TransitionKernel::Packed);
            std::vector<double> scratch(width, 0.0);
            EnergyBreakdown unused;
            std::vector<double> lines(width, 0.0);
            EnergyBreakdown breakdown;
            std::vector<double> want;
            EnergyBreakdown want_total;
            // Intervals of short (word-by-word) and block runs, each
            // checked against the reference over the count deltas,
            // then the whole run against it over the full counts.
            for (size_t len : {size_t(3), size_t(150), size_t(64),
                               size_t(1)}) {
                model.beginInterval();
                model.stepBatch(randomWords(rng, len), scratch,
                                unused);
                model.intervalEnergy(lines, breakdown);
                eagerDerive(model, model.capturePackedState(), want,
                            want_total, true);
                EXPECT_EQ(lines, want);
                EXPECT_EQ(breakdown.self.raw(), want_total.self.raw());
                EXPECT_EQ(breakdown.coupling.raw(),
                          want_total.coupling.raw());
            }
            expectAccessorsMatchEager(model);
        }
    }
}

TEST(PackedModel, EmptyIntervalDerivesPositiveZero)
{
    Rng rng(0x0e0e);
    for (unsigned width : {1u, 33u, 64u}) {
        SCOPED_TRACE(testing::Message() << "width=" << width);
        BusEnergyModel model =
            makeModel(width, 64, TransitionKernel::Packed);
        std::vector<double> scratch(width, 0.0);
        EnergyBreakdown unused;
        model.stepBatch(randomWords(rng, 200), scratch, unused);
        model.beginInterval();
        std::vector<double> lines(width, 1.0);
        EnergyBreakdown breakdown{Joules{1.0}, Joules{1.0}};
        model.intervalEnergy(lines, breakdown);
        for (double e : lines) {
            EXPECT_EQ(e, 0.0);
            EXPECT_FALSE(std::signbit(e));
        }
        EXPECT_EQ(breakdown.self.raw(), 0.0);
        EXPECT_FALSE(std::signbit(breakdown.self.raw()));
        EXPECT_EQ(breakdown.coupling.raw(), 0.0);
        EXPECT_FALSE(std::signbit(breakdown.coupling.raw()));
    }
}

TEST(PackedModel, EmptyIntervalSamplesMatchDerivedIdleInterval)
{
    // The simulator writes +0.0 for an interval that carried no
    // words instead of deriving it. Pin that against an interval
    // whose one word repeats the held word: its deltas are zero too,
    // but the derivation runs. Every sample field but the
    // transmission count, and every later sample, must agree.
    BusSimConfig config;
    config.scheme = EncodingScheme::Unencoded;
    config.data_width = 16;
    config.interval_cycles = 100;
    BusSimulator skipped(tech130, config);
    BusSimulator derived(tech130, config);
    Rng rng(0x5a5a);
    uint32_t word = 0;
    for (uint64_t cycle = 0; cycle < 100; cycle += 2) {
        word = static_cast<uint32_t>(rng.next()) & 0xffffu;
        skipped.transmit(cycle, word);
        derived.transmit(cycle, word);
    }
    derived.transmit(150, word);
    for (uint64_t cycle = 300; cycle < 400; cycle += 3) {
        word = static_cast<uint32_t>(rng.next()) & 0xffffu;
        skipped.transmit(cycle, word);
        derived.transmit(cycle, word);
    }
    skipped.advanceTo(500);
    derived.advanceTo(500);

    const std::vector<IntervalSample> &a = skipped.samples();
    const std::vector<IntervalSample> &b = derived.samples();
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(b.size(), a.size());
    EXPECT_EQ(a[1].transmissions, 0u);
    EXPECT_EQ(b[1].transmissions, 1u);
    EXPECT_FALSE(std::signbit(a[1].energy.self.raw()));
    EXPECT_FALSE(std::signbit(a[1].energy.coupling.raw()));
    for (size_t k = 0; k < a.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "interval " << k);
        if (k != 1) {
            EXPECT_EQ(a[k].transmissions, b[k].transmissions);
        }
        EXPECT_EQ(a[k].end_cycle, b[k].end_cycle);
        EXPECT_EQ(a[k].energy.self.raw(), b[k].energy.self.raw());
        EXPECT_EQ(std::signbit(a[k].energy.self.raw()),
                  std::signbit(b[k].energy.self.raw()));
        EXPECT_EQ(a[k].energy.coupling.raw(),
                  b[k].energy.coupling.raw());
        EXPECT_EQ(std::signbit(a[k].energy.coupling.raw()),
                  std::signbit(b[k].energy.coupling.raw()));
        EXPECT_EQ(a[k].avg_temperature.raw(),
                  b[k].avg_temperature.raw());
        EXPECT_EQ(a[k].max_temperature.raw(),
                  b[k].max_temperature.raw());
        EXPECT_EQ(a[k].avg_current.raw(), b[k].avg_current.raw());
    }
    EXPECT_EQ(skipped.lineEnergies(), derived.lineEnergies());
}

TEST(KernelDefaults, SimulatorPackedStandaloneModelScalar)
{
    // BusSimulator closes its own intervals through
    // beginInterval()/intervalEnergy(), so it runs the packed count
    // kernel by default. A standalone BusEnergyModel keeps the
    // scalar default: its stepBatch() contract fills the caller's
    // per-word interval spans, which packed models leave untouched,
    // and span-based callers (per-record oracles, traced replays)
    // rely on it.
    EXPECT_EQ(BusSimConfig{}.kernel, TransitionKernel::Packed);
    EXPECT_EQ(BusEnergyModel::Config{}.kernel,
              TransitionKernel::Scalar);
}

} // namespace
} // namespace nanobus
