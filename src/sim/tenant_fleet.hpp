/**
 * @file
 * Tenant-fleet workload generator.
 *
 * Models the multi-programmed NIC the paper's Shared UTLB-Cache is
 * built for: a fleet of tenants (simulated processes), each owning a
 * handful of registered buffers, where buffer popularity is
 * Zipf-skewed *across the whole fleet* and tenants churn — bursts of
 * teardown and re-attach hit the driver's unregister path (stat-tree
 * disown, unpin-on-teardown, SRAM release) while translations keep
 * flowing.
 *
 * The generator is a pure deterministic op stream: it owns no
 * simulator state, just emits Translate/Attach/Detach ops that a
 * harness replays against a real stack. The same FleetConfig always
 * yields the same op sequence (sim::Rng + sim::ZipfPicker seed
 * contract), so ablation pairs (offsetting on/off, quota modes)
 * replay identical workloads.
 *
 * Popularity is assigned per *buffer*, not per tenant: a seeded
 * permutation scatters the Zipf ranks over (tenant, buffer) pairs so
 * hot buffers land on many different tenants instead of making
 * tenant 0 globally hot. A Translate drawn against a torn-down
 * tenant emits the Attach first and queues the Translate behind it —
 * exactly the re-register-after-teardown pattern the driver's
 * process directory supports.
 */

#ifndef UTLB_SIM_TENANT_FLEET_HPP
#define UTLB_SIM_TENANT_FLEET_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/random.hpp"
#include "sim/zipf.hpp"

namespace utlb::sim {

/** Shape of one tenant fleet. */
struct FleetConfig {
    std::size_t tenants = 1024;      //!< processes in the fleet
    std::size_t buffersPerTenant = 4;//!< registered buffers each
    std::size_t pagesPerBuffer = 32; //!< pages per buffer
    double zipfAlpha = 1.0;          //!< buffer-popularity skew
    double churnProbability = 0.0;   //!< per-op chance of a burst
    std::size_t churnBurst = 8;      //!< tenants toggled per burst
    std::uint64_t seed = 1;          //!< stream seed
};

/** One generated operation. */
struct FleetOp {
    enum class Kind : std::uint8_t {
        Translate, //!< translate `buffer` of `tenant`
        Attach,    //!< (re-)register `tenant`
        Detach,    //!< tear `tenant` down
    };
    Kind kind;
    std::uint32_t tenant;
    std::uint32_t buffer; //!< valid for Translate only
};

/** Deterministic fleet op-stream generator. */
class TenantFleet
{
  public:
    explicit TenantFleet(const FleetConfig &cfg);

    /** Next op in the stream (never runs out). */
    FleetOp next();

    /** Is tenant @p t currently attached (per the emitted stream)? */
    bool alive(std::size_t t) const { return liveState[t] != 0; }

    /**
     * Number of currently-attached tenants. Tracks the *emitted*
     * stream head: a burst flips liveness when it enqueues its
     * Attach/Detach ops, so a consumer replaying next() lags this by
     * the ops still queued (see pendingOps()).
     */
    std::size_t aliveCount() const { return liveCount; }

    /** Ops enqueued by a burst but not yet returned by next(). */
    std::size_t pendingOps() const { return pending.size(); }

    const FleetConfig &config() const { return cfg; }

  private:
    void burst();

    FleetConfig cfg;
    Rng rng;
    ZipfPicker zipf;
    std::vector<std::uint32_t> rankToBuffer; //!< zipf rank -> global id
    std::vector<std::uint8_t> liveState;
    std::size_t liveCount;
    std::deque<FleetOp> pending;
};

} // namespace utlb::sim

#endif // UTLB_SIM_TENANT_FLEET_HPP
