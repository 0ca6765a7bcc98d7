/**
 * @file
 * A VMMC cluster node (§4).
 *
 * One host + NIC pair running the VMMC communication model:
 *
 *  - processes post commands to per-process command buffers in NIC
 *    SRAM; the firmware (MCP) polls and serves them in order (§4.2);
 *  - remote store sends data from a local virtual buffer directly
 *    into a remote process' exported receive buffer (Figure 5);
 *  - remote fetch pulls data from a remote exported buffer into a
 *    local buffer (§4.1);
 *  - transfer redirection re-targets incoming data to another user
 *    buffer (§4.1) — translated on demand through the receiver's
 *    UTLB, which is the feature UTLB "empowers";
 *  - all NIC-to-NIC traffic runs over the reliable link protocol.
 *
 *  Every transfer moves real bytes (host memory -> NIC -> wire ->
 *  NIC -> host memory) and charges the calibrated translation, DMA,
 *  and wire costs on the shared event queue.
 */

#ifndef UTLB_VMMC_NODE_HPP
#define UTLB_VMMC_NODE_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/cost_model.hpp"
#include "core/driver.hpp"
#include "core/interrupt_baseline.hpp"
#include "core/per_process_utlb.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_memory.hpp"
#include "mem/pinning.hpp"
#include "net/network.hpp"
#include "nic/command_post.hpp"
#include "nic/dma.hpp"
#include "nic/sram.hpp"
#include "nic/timing.hpp"
#include "sim/event_queue.hpp"
#include "sim/flat_map.hpp"
#include "vmmc/reliable.hpp"

namespace utlb::vmmc {

/** How the firmware translates user buffers. */
enum class XlateMode {
    Utlb,       //!< Hierarchical-UTLB (the paper's mechanism)
    Interrupt,  //!< interrupt-the-host baseline (UNet-MM style)
};

/** Per-node configuration. */
struct NodeConfig {
    std::size_t memoryFrames = 16384;  //!< host DRAM (64 MB default)
    core::CacheConfig cache{8192, 1, true};
    std::size_t commandSlots = 64;     //!< per-process command ring
    sim::Tick retryTimeout = kDefaultRetryTimeout;
    XlateMode mode = XlateMode::Utlb;
};

/** Handle to an exported receive buffer. */
using ExportId = std::uint32_t;

/** Handle to an imported remote buffer (per process). */
using ImportSlot = std::uint32_t;

/** Callback fired when a full transfer has been deposited. */
using DeliverCallback =
    std::function<void(ExportId, std::uint64_t bytes)>;

/**
 * One cluster node: host memory, OS pinning, the UTLB stack, the
 * NIC (SRAM, DMA, command posts, firmware), and the reliable link
 * endpoint.
 */
class VmmcNode
{
  public:
    VmmcNode(net::NodeId id, net::Network &network,
             sim::EventQueue &event_queue, const nic::NicTimings &t,
             const NodeConfig &cfg);

    net::NodeId id() const { return nodeId; }

    /** @name Process management @{ */

    /** Create a process on this node with its own UTLB view. */
    core::UserUtlb &createProcess(mem::ProcId pid,
                                  const core::UtlbConfig &cfg = {});

    mem::AddressSpace &space(mem::ProcId pid);
    core::UserUtlb &utlb(mem::ProcId pid);

    /** @} */
    /** @name The VMMC API @{ */

    /**
     * Export [va, va+bytes) of @p pid as a receive buffer. The
     * buffer is pinned (and locked against eviction) while exported.
     * @return the export handle, or nullopt if pinning failed.
     */
    std::optional<ExportId> exportBuffer(mem::ProcId pid,
                                         mem::VirtAddr va,
                                         std::size_t bytes);

    /** Withdraw an export; unpins its pages. */
    bool unexportBuffer(ExportId id);

    /**
     * Import a remote exported buffer into @p pid's import table.
     * @return the import slot to use in send()/fetch().
     */
    ImportSlot importBuffer(mem::ProcId pid, net::NodeId remote_node,
                            ExportId remote_export);

    /**
     * Remote store: send [localVa, +nbytes) into the imported
     * buffer at @p remoteOffset. Returns false if the buffer could
     * not be pinned or the command ring is full.
     */
    bool send(mem::ProcId pid, mem::VirtAddr local_va,
              std::size_t nbytes, ImportSlot slot,
              std::uint64_t remote_offset);

    /**
     * Remote fetch: read [remoteOffset, +nbytes) of the imported
     * buffer into [localVa, +nbytes).
     */
    bool fetch(mem::ProcId pid, mem::VirtAddr local_va,
               std::size_t nbytes, ImportSlot slot,
               std::uint64_t remote_offset);

    /**
     * Transfer redirection (§4.1): deposit future incoming data for
     * @p id at @p newVa instead of the exported location. The new
     * buffer is pinned on demand through the owner's UTLB.
     */
    bool redirect(ExportId id, mem::VirtAddr new_va);

    /** Cancel a redirection. */
    bool unredirect(ExportId id);

    /**
     * Give @p pid a per-process NIC-resident translation table
     * (§3.1) alongside its Hierarchical-UTLB, enabling sendIdx().
     */
    core::PerProcessUtlb &
    enablePerProcessUtlb(mem::ProcId pid, std::size_t entries);

    /** The process' per-process UTLB (must be enabled). */
    core::PerProcessUtlb &perProcessUtlb(mem::ProcId pid);

    /**
     * Remote store through the per-process UTLB (§3.1, Figure 2):
     * the caller resolves its buffer to a table index via
     * PerProcessUtlb::lookup() and submits the index; the firmware
     * translates with one protected SRAM read. Single-page
     * transfers only (one index names one page).
     *
     * Safety property (§4.2): a bogus index is harmless — the NIC
     * reads the driver's garbage page instead of faulting.
     */
    bool sendIdx(mem::ProcId pid, core::UtlbIndex index,
                 std::size_t page_offset, std::size_t nbytes,
                 ImportSlot slot, std::uint64_t remote_offset);

    /**
     * Dynamic node remapping (§4.1): after a link or port failure,
     * retarget every import of @p pid that pointed at
     * @p failed_node to @p replacement_node, and re-issue unacked
     * link traffic there. The replacement must hold equivalent
     * receive-buffer exports (a hot standby), as in the paper's
     * failover procedure.
     * @return the number of import slots rewritten.
     */
    std::size_t remapImports(mem::ProcId pid, net::NodeId failed_node,
                             net::NodeId replacement_node);

    /** Register a completion callback for finished deposits. */
    void setDeliverCallback(DeliverCallback cb) { onDeliver = std::move(cb); }

    /** @} */
    /** @name Component access (examples, benches, tests) @{ */

    mem::PhysMemory &physMemory() { return physMem; }
    mem::PinFacility &pinFacility() { return pins; }
    nic::Sram &sram() { return boardSram; }
    core::SharedUtlbCache &nicCache() { return cache; }
    core::UtlbDriver &driver() { return utlbDriver; }
    ReliableEndpoint &reliable() { return link; }
    const nic::NicTimings &timings() const { return *nicTimings; }

    /** @} */
    /** @name Lifetime counters @{ */

    /**
     * Dump a human-readable statistics report for this node: VMMC
     * transfer counters, NIC cache behaviour, pinning activity, and
     * link-protocol health.
     */
    void printStats(std::ostream &os) const;

    std::uint64_t sendsPosted() const { return statSends.value(); }
    std::uint64_t fetchesPosted() const { return statFetches.value(); }
    std::uint64_t transfersCompleted() const
    {
        return statCompleted.value();
    }
    std::uint64_t bytesDeposited() const
    {
        return statBytesDeposited.value();
    }
    std::uint64_t fragmentsSent() const
    {
        return statFragments.value();
    }
    sim::Tick lastDepositTime() const { return lastDeposit; }

    /**
     * The node's statistics subtree: VMMC transfer counters at the
     * root, with the shared cache, driver, interrupt baseline, DMA
     * engine, SRAM, pin facility, and every process' UTLB adopted
     * as children.
     */
    sim::StatGroup &stats() { return statsGrp; }
    const sim::StatGroup &stats() const { return statsGrp; }

    /** @} */

    /**
     * Invariant auditor: sweeps the node's whole translation stack
     * (driver, pin facility, NIC cache, per-process pin managers)
     * and the VMMC layer itself — every live export and every
     * transfer still depositing must target pinned pages, so no
     * in-flight DMA can ever land on an unpinned frame.
     */
    void audit(check::AuditReport &report) const;

  private:
    struct ProcState {
        std::unique_ptr<mem::AddressSpace> space;
        std::unique_ptr<core::UserUtlb> utlb;
        std::unique_ptr<core::PerProcessUtlb> ppUtlb;
        std::unique_ptr<nic::CommandPost> post;
        std::vector<std::pair<net::NodeId, ExportId>> imports;
        bool mcpScheduled = false;
    };

    struct ExportEntry {
        mem::ProcId pid = 0;
        mem::VirtAddr va = 0;
        std::size_t bytes = 0;
        std::optional<mem::VirtAddr> redirectVa;
        bool transient = false;   //!< fetch-reply registration
        bool live = false;
    };

    /** Bytes of one in-flight transfer deposited so far. */
    struct Progress {
        std::uint64_t bytes = 0;
        ExportId exportId = 0;
    };

    /**
     * Identifies one in-flight transfer at the receiver: every data
     * transfer (a store or a fetch reply) is named by the node that
     * sends its bytes, so (sender, transfer id) is unique.
     */
    static std::uint64_t
    transferKey(net::NodeId src, std::uint32_t transfer_id)
    {
        return std::uint64_t{src} << 32 | transfer_id;
    }

    ProcState &proc(mem::ProcId pid);

    /**
     * Translate one page for the firmware, through the configured
     * mechanism (UTLB lookup or host interrupt).
     */
    core::NicLookup xlate(mem::ProcId pid, mem::Vpn vpn);

    /** Network receive path (already reliability-filtered). */
    void onPacket(const net::Packet &pkt);

    /** Schedule the firmware to service @p pid's command ring. */
    void kickMcp(mem::ProcId pid, sim::Tick delay);

    /** Serve one command off @p pid's ring. */
    void mcpService(mem::ProcId pid);

    /** Firmware work for one SendVirt command. */
    void serveSend(ProcState &p, const nic::Command &cmd);

    /** Firmware work for one SendIdx command (§3.1 submit path). */
    void serveSendIdx(ProcState &p, const nic::Command &cmd);

    /** Firmware work for one FetchVirt command. */
    void serveFetch(ProcState &p, const nic::Command &cmd);

    /** Serve an incoming FetchReq from a peer. */
    void serveFetchRequest(const net::PacketHeader &hdr);

    /** Deposit an in-order data fragment into host memory. */
    void depositData(const net::Packet &pkt);

    /**
     * DMA-read @p n bytes at @p pa into a fresh payload, once. A
     * frame never written reads as zeros, so its payload gets no
     * buffer.
     * @pre [pa, pa + n) lies in one frame.
     */
    net::Payload dmaRead(mem::PhysAddr pa, std::size_t n) const;

    /**
     * Stream [va, va+nbytes) of process @p pid to @p dst as Data
     * fragments addressed to (export, offset) and tagged with
     * @p transfer_id, charging translation and DMA costs; used by
     * both send and fetch-reply paths.
     * @return the accumulated firmware time.
     */
    sim::Tick streamOut(mem::ProcId pid, mem::VirtAddr va,
                        std::size_t nbytes, net::NodeId dst,
                        ExportId export_id, std::uint64_t offset,
                        std::uint32_t total_bytes,
                        std::uint32_t transfer_id);

    net::NodeId nodeId;
    net::Network *network;
    sim::EventQueue *events;
    const nic::NicTimings *nicTimings;
    NodeConfig config;

    mem::PhysMemory physMem;
    mem::PinFacility pins;
    nic::Sram boardSram;
    core::HostCosts hostCosts;
    core::SharedUtlbCache cache;
    core::UtlbDriver utlbDriver;
    core::InterruptTlb intrTlb;
    nic::DmaEngine dma;
    ReliableEndpoint link;

    std::unordered_map<mem::ProcId, ProcState> procs;
    std::vector<ExportEntry> exports;
    /** In-flight transfers by transferKey(). */
    sim::FlatMap<Progress> depositProgress;
    std::uint32_t nextTransferId = 1;
    DeliverCallback onDeliver;

    sim::Tick lastDeposit = 0;

    sim::StatGroup statsGrp;
    sim::Counter statSends{&statsGrp, "sends_posted",
                           "SendVirt/SendIdx commands accepted"};
    sim::Counter statFetches{&statsGrp, "fetches_posted",
                             "FetchVirt commands accepted"};
    sim::Counter statCompleted{&statsGrp, "transfers_completed",
                               "transfers fully deposited"};
    sim::Counter statBytesDeposited{&statsGrp, "bytes_deposited",
                                    "payload bytes landed in host "
                                    "memory"};
    sim::Counter statFragments{&statsGrp, "fragments_sent",
                               "data fragments put on the wire"};
};

} // namespace utlb::vmmc

#endif // UTLB_VMMC_NODE_HPP
