/**
 * @file
 * TracedBus: the BusSimulator stage sequence driven through the
 * inner layers' own public functions, with a span around each.
 *
 * BusSimulator::transmit[Batch] hides three layers (encoding,
 * energy, thermal) behind one call, so the traced run cannot split
 * its time. TracedBus performs the same steps in the same order with
 * the same arithmetic — encodeBatch over the batch, stepBatch over
 * each maximal run of words inside one open interval, and an
 * advanceChecked at every interval close — so its energies, counts
 * and temperatures reproduce the untraced BusSimulator's. The
 * benchmark's correctness check holds it to that.
 */

#ifndef NBBENCH_TRACED_BUS_HH
#define NBBENCH_TRACED_BUS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "encoding/encoder.hh"
#include "energy/bus_energy.hh"
#include "fabric/bus_sim.hh"
#include "thermal/network.hh"
#include "util/checkpoint.hh"

namespace nbbench {

class TracedBus
{
  public:
    TracedBus(const nanobus::TechnologyNode &tech,
              const nanobus::BusSimConfig &config,
              const nanobus::CapacitanceMatrix *caps);

    unsigned busWidth() const { return encoder_->busWidth(); }

    void transmitBatch(nanobus::BusBatch &batch);
    void transmit(uint64_t cycle, uint32_t address);
    void advanceTo(uint64_t cycle);

    /** Serialize the mutable state (encoder, accumulators, thermal
     *  nodes, interval bookkeeping) the way a checkpoint does. */
    void saveState(nanobus::SnapshotWriter &w) const;

    const nanobus::EnergyBreakdown &totalEnergy() const
    {
        return energy_->accumulatedBreakdown();
    }
    const std::vector<double> &lineEnergies() const
    {
        return energy_->accumulatedLineEnergy();
    }
    const nanobus::ThermalNetwork &thermalNetwork() const
    {
        return *thermal_;
    }
    const std::vector<nanobus::ThermalFault> &thermalFaults() const
    {
        return faults_;
    }
    uint64_t transmissions() const { return transmissions_; }
    uint64_t intervalCloses() const { return closes_; }
    uint64_t transmitCalls() const { return transmit_calls_; }
    uint64_t energyCalls() const { return energy_calls_; }
    /** Words whose encoder control lines were asserted. */
    uint64_t inverts() const { return inverts_; }

  private:
    void closeInterval();

    const nanobus::TechnologyNode &tech_;
    nanobus::BusSimConfig config_;
    std::unique_ptr<nanobus::BusEncoder> encoder_;
    std::unique_ptr<nanobus::BusEnergyModel> energy_;
    std::unique_ptr<nanobus::ThermalNetwork> thermal_;
    /** Bus-word bits that carry encoder control lines. */
    uint64_t control_mask_ = 0;

    uint64_t current_cycle_ = 0;
    uint64_t interval_end_;
    uint64_t transmissions_ = 0;
    uint64_t interval_transmissions_ = 0;
    std::vector<double> interval_line_energy_;
    nanobus::EnergyBreakdown interval_energy_;
    std::vector<double> power_scratch_;
    std::vector<nanobus::ThermalFault> faults_;

    uint64_t closes_ = 0;
    uint64_t transmit_calls_ = 0;
    uint64_t energy_calls_ = 0;
    uint64_t inverts_ = 0;
};

} // namespace nbbench

#endif // NBBENCH_TRACED_BUS_HH
