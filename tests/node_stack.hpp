/**
 * @file
 * One node's translation stack as the tests build it: host memory
 * and the kernel pin facility, board SRAM, the Shared UTLB-Cache in
 * it, and the driver over all of them (the Table 1 / Table 2 cost
 * defaults). Fixtures derive from it and attach their processes.
 */

#ifndef UTLB_TESTS_NODE_STACK_HPP
#define UTLB_TESTS_NODE_STACK_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "core/cost_model.hpp"
#include "core/driver.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"

namespace utlb {

struct NodeStack {
    core::HostCosts costs;
    nic::NicTimings timings;
    mem::PhysMemory physMem;
    mem::PinFacility pins;
    nic::Sram sram;
    core::SharedUtlbCache cache;
    core::UtlbDriver driver;

    explicit NodeStack(const core::CacheConfig &cc = {256, 1, true},
                       std::size_t frames = 8192,
                       std::size_t sramBytes = 1u << 20)
        : physMem(frames), sram(sramBytes), cache(cc, timings, &sram),
          driver(physMem, pins, sram, cache, costs)
    {}

    /** A registered process and its library view. */
    struct Tenant {
        std::unique_ptr<mem::AddressSpace> space;
        std::unique_ptr<core::UserUtlb> utlb;
    };

    /** Register process @p pid and open its view under @p cfg. */
    Tenant
    attach(mem::ProcId pid, const core::UtlbConfig &cfg = {})
    {
        auto space = std::make_unique<mem::AddressSpace>(pid, physMem);
        driver.registerProcess(*space);
        return {std::move(space), std::make_unique<core::UserUtlb>(
                                      driver, cache, timings, pid, cfg)};
    }

    /** Audit the cache, the driver and @p tenants' pin managers (their
     *  shard stats flushed first; a tenant without a view is skipped);
     *  the findings, "" if none. */
    std::string
    audit(const std::vector<Tenant> &tenants = {})
    {
        check::AuditReport report;
        for (const Tenant &t : tenants) {
            if (!t.utlb)
                continue;
            t.utlb->flushShardStats();
            t.utlb->pinManager().audit(report);
        }
        cache.audit(report);
        driver.audit(report);
        return report.ok() ? "" : report.summary();
    }
};

} // namespace utlb

#endif // UTLB_TESTS_NODE_STACK_HPP
