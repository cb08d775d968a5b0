#include "traced_bus.hh"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "tech/layer_stack.hh"
#include "thermal/interlayer.hh"
#include "tracer.hh"

using namespace nanobus;

namespace nbbench {

namespace {

/** Control-line positions documented in encoding/schemes.hh. */
uint64_t
controlMask(EncodingScheme scheme, unsigned data_width)
{
    switch (scheme) {
      case EncodingScheme::BusInvert:
      case EncodingScheme::CouplingDrivenBusInvert:
        return uint64_t{1} << data_width;
      case EncodingScheme::OddEvenBusInvert:
        return 1u | (uint64_t{1} << (data_width + 1));
      default:
        return 0;
    }
}

} // anonymous namespace

TracedBus::TracedBus(const TechnologyNode &tech,
                     const BusSimConfig &config,
                     const CapacitanceMatrix *caps)
    : tech_(tech), config_(config),
      interval_end_(config.interval_cycles)
{
    {
        Span span(SpanId::BusBuild);
        encoder_ = makeEncoder(config_.scheme, config_.data_width);
        const unsigned width = encoder_->busWidth();
        const CapacitanceMatrix matrix =
            caps ? *caps : CapacitanceMatrix::analytical(tech, width);
        BusEnergyModel::Config energy_config;
        energy_config.wire_length = config_.wire_length;
        energy_config.coupling_radius = config_.coupling_radius;
        energy_config.include_repeaters = config_.include_repeaters;
        energy_ = std::make_unique<BusEnergyModel>(tech, matrix,
                                                   energy_config);
        control_mask_ = controlMask(config_.scheme, config_.data_width);
        interval_line_energy_.assign(width, 0.0);
        power_scratch_.assign(width, 0.0);
    }
    Span span(SpanId::ThermalBuild);
    ThermalConfig thermal_config = config_.thermal;
    if (thermal_config.stack_mode != StackMode::None &&
        thermal_config.delta_theta.raw() == 0.0) {
        MetalLayerStack stack(tech);
        thermal_config.delta_theta =
            InterLayerModel(tech, stack).deltaTheta();
    }
    thermal_ = std::make_unique<ThermalNetwork>(tech, busWidth(),
                                                thermal_config);
    thermal_->reset(config_.initial_temperature);
}

void
TracedBus::closeInterval()
{
    const Seconds interval_seconds =
        static_cast<double>(config_.interval_cycles) / tech_.f_clk;
    const double denom =
        (interval_seconds * config_.wire_length).raw();
    for (unsigned i = 0; i < busWidth(); ++i)
        power_scratch_[i] = interval_line_energy_[i] / denom;
    std::vector<ThermalFault> faults;
    {
        Span span(SpanId::ThermalAdvance);
        faults = thermal_->advanceChecked(power_scratch_,
                                          interval_seconds);
    }
    for (ThermalFault &fault : faults) {
        fault.cycle = interval_end_;
        faults_.push_back(std::move(fault));
    }
    std::fill(interval_line_energy_.begin(),
              interval_line_energy_.end(), 0.0);
    interval_energy_ = EnergyBreakdown();
    interval_transmissions_ = 0;
    interval_end_ += config_.interval_cycles;
    ++closes_;
}

void
TracedBus::advanceTo(uint64_t cycle)
{
    if (cycle < current_cycle_)
        throw std::runtime_error("TracedBus: cycle moves backwards");
    while (interval_end_ <= cycle)
        closeInterval();
    current_cycle_ = cycle;
}

void
TracedBus::transmit(uint64_t cycle, uint32_t address)
{
    Span span(SpanId::BusTransmit);
    ++transmit_calls_;
    advanceTo(cycle);
    uint64_t data = address;
    uint64_t bus_word = 0;
    {
        Span encode(SpanId::Encode);
        encoder_->encodeBatch(std::span<const uint64_t>(&data, 1),
                              std::span<uint64_t>(&bus_word, 1));
    }
    inverts_ += (bus_word & control_mask_) != 0;
    {
        Span step(SpanId::EnergyStep);
        energy_->stepBatch(std::span<const uint64_t>(&bus_word, 1),
                           interval_line_energy_, interval_energy_);
    }
    ++energy_calls_;
    ++transmissions_;
    ++interval_transmissions_;
}

void
TracedBus::transmitBatch(BusBatch &batch)
{
    Span span(SpanId::BusTransmit);
    ++transmit_calls_;
    const size_t n = batch.size();
    if (n == 0)
        return;
    batch.bus_words.resize(n);
    {
        Span encode(SpanId::Encode);
        encoder_->encodeBatch(batch.addresses, batch.bus_words);
    }
    if (control_mask_) {
        for (uint64_t word : batch.bus_words)
            inverts_ += (word & control_mask_) != 0;
    }
    size_t i = 0;
    while (i < n) {
        advanceTo(batch.cycles[i]);
        size_t j = i + 1;
        while (j < n && batch.cycles[j] < interval_end_) {
            if (batch.cycles[j] < batch.cycles[j - 1])
                throw std::runtime_error(
                    "TracedBus: cycle moves backwards");
            ++j;
        }
        {
            Span step(SpanId::EnergyStep);
            energy_->stepBatch(
                std::span<const uint64_t>(batch.bus_words)
                    .subspan(i, j - i),
                interval_line_energy_, interval_energy_);
        }
        ++energy_calls_;
        transmissions_ += j - i;
        interval_transmissions_ += j - i;
        current_cycle_ = batch.cycles[j - 1];
        i = j;
    }
}

void
TracedBus::saveState(SnapshotWriter &w) const
{
    std::vector<uint64_t> encoder_state;
    if (!encoder_->captureState(encoder_state))
        throw std::runtime_error("TracedBus: encoder has no state capture");
    w.putU64(encoder_state.size());
    for (uint64_t word : encoder_state)
        w.putU64(word);
    w.putU64(energy_->lastWord());
    w.putU64(energy_->cycles());
    for (double e : energy_->accumulatedLineEnergy())
        w.putF64(e);
    w.putF64(totalEnergy().self.raw());
    w.putF64(totalEnergy().coupling.raw());
    const ThermalNetwork::SnapshotState thermal =
        thermal_->snapshotState();
    w.putU64(thermal.nodes.size());
    for (double t : thermal.nodes)
        w.putF64(t);
    w.putF64(thermal.last_max_temp);
    w.putU32(thermal.rising_streak);
    w.putU64(current_cycle_);
    w.putU64(interval_end_);
    w.putU64(transmissions_);
    w.putU64(interval_transmissions_);
    for (double e : interval_line_energy_)
        w.putF64(e);
    w.putF64(interval_energy_.self.raw());
    w.putF64(interval_energy_.coupling.raw());
}

} // namespace nbbench
