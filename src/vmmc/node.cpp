#include "vmmc/node.hpp"

#include <algorithm>
#include <ostream>

#include "check/audit.hpp"
#include "sim/log.hpp"

namespace utlb::vmmc {

using core::NicLookup;
using mem::kPageSize;
using mem::offsetOf;
using mem::pageOf;
using mem::pagesSpanned;
using mem::ProcId;
using mem::VirtAddr;
using net::Packet;
using net::PacketType;
using sim::panic;
using sim::Tick;

VmmcNode::VmmcNode(net::NodeId id, net::Network &network_ref,
                   sim::EventQueue &event_queue,
                   const nic::NicTimings &t, const NodeConfig &cfg)
    : nodeId(id), network(&network_ref), events(&event_queue),
      nicTimings(&t), config(cfg),
      physMem(cfg.memoryFrames),
      boardSram(nic::kDefaultSramBytes),
      cache(cfg.cache, t, &boardSram),
      utlbDriver(physMem, pins, boardSram, cache, hostCosts),
      intrTlb(pins, cache, hostCosts, t),
      dma(physMem, boardSram, t),
      link(id, network_ref, event_queue, cfg.retryTimeout),
      statsGrp("node" + std::to_string(id))
{
    network->attach(id, [this](const Packet &pkt) {
        if (link.onPacket(pkt))
            onPacket(pkt);
    });
    statsGrp.adopt(cache.stats());
    statsGrp.adopt(utlbDriver.stats());
    statsGrp.adopt(intrTlb.stats());
    statsGrp.adopt(dma.stats());
    statsGrp.adopt(boardSram.stats());
    statsGrp.adopt(pins.stats());
}

core::NicLookup
VmmcNode::xlate(ProcId pid, mem::Vpn vpn)
{
    if (config.mode == XlateMode::Utlb)
        return proc(pid).utlb->nicTranslate(vpn);
    // Interrupt mode: the NIC interrupts the host on a translation
    // miss; the handler pins the page and installs the entry;
    // evictions unpin (§6.2 baseline).
    core::IntrLookup lk = intrTlb.translate(pid, vpn);
    core::NicLookup out;
    out.pfn = lk.pfn;
    out.cost = lk.cost;
    out.miss = lk.miss;
    out.fault = lk.failed;
    return out;
}

VmmcNode::ProcState &
VmmcNode::proc(ProcId pid)
{
    auto it = procs.find(pid);
    if (it == procs.end())
        panic("no process %u on node %u", pid, nodeId);
    return it->second;
}

core::UserUtlb &
VmmcNode::createProcess(ProcId pid, const core::UtlbConfig &cfg)
{
    if (procs.count(pid))
        panic("process %u created twice on node %u", pid, nodeId);
    ProcState state;
    state.space = std::make_unique<mem::AddressSpace>(pid, physMem);
    utlbDriver.registerProcess(*state.space);
    state.utlb = std::make_unique<core::UserUtlb>(
        utlbDriver, cache, *nicTimings, pid, cfg);
    state.post = std::make_unique<nic::CommandPost>(
        boardSram, pid, config.commandSlots);
    auto [it, inserted] = procs.emplace(pid, std::move(state));
    statsGrp.adopt(it->second.utlb->stats());
    return *it->second.utlb;
}

mem::AddressSpace &
VmmcNode::space(ProcId pid)
{
    return *proc(pid).space;
}

core::UserUtlb &
VmmcNode::utlb(ProcId pid)
{
    return *proc(pid).utlb;
}

std::optional<ExportId>
VmmcNode::exportBuffer(ProcId pid, VirtAddr va, std::size_t bytes)
{
    ProcState &p = proc(pid);
    // "This approach requires receivers to pin and export receive
    // buffers before the data is transferred" (§2, SHRIMP/VMMC).
    auto res = p.utlb->prepare(va, bytes);
    if (!res.ok)
        return std::nullopt;
    p.utlb->pinManager().lockRange(pageOf(va), pagesSpanned(va, bytes));
    // A fresh frame is not resident on the host until written, and
    // pinning does not write it: fault the buffer in here, at set-up,
    // rather than on its first deposit.
    for (std::size_t i = 0; i < pagesSpanned(va, bytes); ++i)
        if (auto pfn = p.space->lookup(pageOf(va) + i))
            physMem.populate(*pfn);

    ExportEntry entry;
    entry.pid = pid;
    entry.va = va;
    entry.bytes = bytes;
    entry.live = true;
    exports.push_back(entry);
    return static_cast<ExportId>(exports.size() - 1);
}

bool
VmmcNode::unexportBuffer(ExportId id)
{
    if (id >= exports.size() || !exports[id].live)
        return false;
    ExportEntry &e = exports[id];
    proc(e.pid).utlb->pinManager().unlockRange(
        pageOf(e.va), pagesSpanned(e.va, e.bytes));
    e.live = false;
    return true;
}

ImportSlot
VmmcNode::importBuffer(ProcId pid, net::NodeId remote_node,
                       ExportId remote_export)
{
    ProcState &p = proc(pid);
    p.imports.emplace_back(remote_node, remote_export);
    return static_cast<ImportSlot>(p.imports.size() - 1);
}

bool
VmmcNode::send(ProcId pid, VirtAddr local_va, std::size_t nbytes,
               ImportSlot slot, std::uint64_t remote_offset)
{
    ProcState &p = proc(pid);
    if (slot >= p.imports.size() || nbytes == 0)
        return false;

    // Host side: under UTLB the user library pins the buffer before
    // posting (Figure 2's pseudo-code) and locks it against eviction
    // while the send is outstanding (§3.1). The interrupt baseline
    // posts blind; the NIC will fault the pages in.
    sim::Tick host_cost = 0;
    if (config.mode == XlateMode::Utlb) {
        auto res = p.utlb->prepare(local_va, nbytes);
        if (!res.ok)
            return false;
        host_cost = res.cost;
        p.utlb->pinManager().lockRange(pageOf(local_va),
                                       pagesSpanned(local_va, nbytes));
    }

    nic::Command cmd;
    cmd.op = nic::CommandOp::SendVirt;
    cmd.localVa = local_va;
    cmd.nbytes = static_cast<std::uint32_t>(nbytes);
    cmd.importSlot = slot;
    cmd.remoteOffset = remote_offset;
    if (!p.post->post(cmd)) {
        if (config.mode == XlateMode::Utlb) {
            p.utlb->pinManager().unlockRange(
                pageOf(local_va), pagesSpanned(local_va, nbytes));
        }
        return false;
    }
    ++statSends;
    kickMcp(pid, host_cost);
    return true;
}

bool
VmmcNode::fetch(ProcId pid, VirtAddr local_va, std::size_t nbytes,
                ImportSlot slot, std::uint64_t remote_offset)
{
    ProcState &p = proc(pid);
    if (slot >= p.imports.size() || nbytes == 0)
        return false;

    // The destination buffer must be pinned before the reply can be
    // deposited; remote-fetch is the first feature UTLB "empowers".
    auto res = p.utlb->prepare(local_va, nbytes);
    if (!res.ok)
        return false;
    p.utlb->pinManager().lockRange(pageOf(local_va),
                                   pagesSpanned(local_va, nbytes));

    nic::Command cmd;
    cmd.op = nic::CommandOp::FetchVirt;
    cmd.localVa = local_va;
    cmd.nbytes = static_cast<std::uint32_t>(nbytes);
    cmd.importSlot = slot;
    cmd.remoteOffset = remote_offset;
    if (!p.post->post(cmd)) {
        p.utlb->pinManager().unlockRange(pageOf(local_va),
                                         pagesSpanned(local_va, nbytes));
        return false;
    }
    ++statFetches;
    kickMcp(pid, res.cost);
    return true;
}

bool
VmmcNode::redirect(ExportId id, VirtAddr new_va)
{
    if (id >= exports.size() || !exports[id].live)
        return false;
    ExportEntry &e = exports[id];
    // Pin the redirection target on demand through the owner's UTLB
    // — this is what makes zero-copy redirection possible (§4.1).
    auto res = proc(e.pid).utlb->prepare(new_va, e.bytes);
    if (!res.ok)
        return false;
    e.redirectVa = new_va;
    return true;
}

core::PerProcessUtlb &
VmmcNode::enablePerProcessUtlb(ProcId pid, std::size_t entries)
{
    ProcState &p = proc(pid);
    if (p.ppUtlb)
        panic("per-process UTLB enabled twice for pid %u", pid);
    core::PerProcessConfig cfg;
    cfg.tableEntries = entries;
    p.ppUtlb = std::make_unique<core::PerProcessUtlb>(utlbDriver, pid,
                                                      cfg);
    return *p.ppUtlb;
}

core::PerProcessUtlb &
VmmcNode::perProcessUtlb(ProcId pid)
{
    ProcState &p = proc(pid);
    if (!p.ppUtlb)
        panic("per-process UTLB not enabled for pid %u", pid);
    return *p.ppUtlb;
}

bool
VmmcNode::sendIdx(ProcId pid, core::UtlbIndex index,
                  std::size_t page_offset, std::size_t nbytes,
                  ImportSlot slot, std::uint64_t remote_offset)
{
    ProcState &p = proc(pid);
    if (!p.ppUtlb || slot >= p.imports.size() || nbytes == 0
        || page_offset + nbytes > kPageSize) {
        return false;
    }
    nic::Command cmd;
    cmd.op = nic::CommandOp::SendIdx;
    cmd.utlbIndex = index;
    cmd.localVa = page_offset;  // offset within the indexed page
    cmd.nbytes = static_cast<std::uint32_t>(nbytes);
    cmd.importSlot = slot;
    cmd.remoteOffset = remote_offset;
    if (!p.post->post(cmd))
        return false;
    ++statSends;
    // Index submission is the fast path: no pinning work at all.
    kickMcp(pid, sim::usToTicks(0.5));
    return true;
}

void
VmmcNode::serveSendIdx(ProcState &p, const nic::Command &cmd)
{
    auto [dst_node, dst_export] = p.imports.at(cmd.importSlot);
    // One protected table read; out-of-range or stale indices yield
    // the garbage frame, by design (§4.2).
    mem::Pfn pfn = utlbDriver.nicTable(p.utlb->pid())
                       .entry(cmd.utlbIndex);
    Tick t = nicTimings->cacheHitCost / 2;  // SRAM read, no tag check
    t += nicTimings->payloadDmaCost(cmd.nbytes);

    Packet pkt;
    pkt.hdr.type = PacketType::Data;
    pkt.hdr.src = nodeId;
    pkt.hdr.dst = dst_node;
    pkt.hdr.transferId = nextTransferId++;
    pkt.hdr.exportId = dst_export;
    pkt.hdr.offset = cmd.remoteOffset;
    pkt.hdr.totalBytes = cmd.nbytes;
    pkt.payload = dmaRead(mem::frameAddr(pfn) + cmd.localVa, cmd.nbytes);
    ++statFragments;
    events->after(t, [this, pkt = std::move(pkt)]() mutable {
        link.sendReliable(std::move(pkt));
    });
}

std::size_t
VmmcNode::remapImports(ProcId pid, net::NodeId failed_node,
                       net::NodeId replacement_node)
{
    ProcState &p = proc(pid);
    std::size_t rewritten = 0;
    for (auto &[node, export_id] : p.imports) {
        if (node == failed_node) {
            node = replacement_node;
            ++rewritten;
        }
    }
    if (rewritten > 0)
        link.remapPeer(failed_node, replacement_node);
    return rewritten;
}

bool
VmmcNode::unredirect(ExportId id)
{
    if (id >= exports.size() || !exports[id].live
        || !exports[id].redirectVa) {
        return false;
    }
    exports[id].redirectVa.reset();
    return true;
}

void
VmmcNode::kickMcp(ProcId pid, Tick delay)
{
    ProcState &p = proc(pid);
    if (p.mcpScheduled)
        return;
    p.mcpScheduled = true;
    events->after(delay, [this, pid] { mcpService(pid); });
}

void
VmmcNode::mcpService(ProcId pid)
{
    ProcState &p = proc(pid);
    p.mcpScheduled = false;
    auto cmd = p.post->poll();
    if (!cmd)
        return;

    switch (cmd->op) {
      case nic::CommandOp::SendVirt:
        serveSend(p, *cmd);
        break;
      case nic::CommandOp::FetchVirt:
        serveFetch(p, *cmd);
        break;
      case nic::CommandOp::SendIdx:
        serveSendIdx(p, *cmd);
        break;
      default:
        break;
    }

    if (p.post->depth() > 0)
        kickMcp(pid, sim::usToTicks(0.5));
}

sim::Tick
VmmcNode::streamOut(ProcId pid, VirtAddr va, std::size_t nbytes,
                    net::NodeId dst, ExportId export_id,
                    std::uint64_t offset, std::uint32_t total_bytes,
                    std::uint32_t transfer_id)
{
    Tick t = 0;
    std::size_t done = 0;
    while (done < nbytes) {
        // "The Myrinet VMMC firmware breaks down data transfer at
        // 4 KB page boundaries" (§5 footnote).
        std::size_t frag = std::min(nbytes - done,
                                    kPageSize - offsetOf(va + done));
        NicLookup nl = xlate(pid, pageOf(va + done));
        t += nl.cost;
        t += nicTimings->payloadDmaCost(frag);

        Packet pkt;
        pkt.hdr.type = PacketType::Data;
        pkt.hdr.src = nodeId;
        pkt.hdr.dst = dst;
        pkt.hdr.transferId = transfer_id;
        pkt.hdr.exportId = export_id;
        pkt.hdr.offset = offset + done;
        pkt.hdr.totalBytes = total_bytes;
        pkt.payload =
            dmaRead(mem::frameAddr(nl.pfn) + offsetOf(va + done), frag);
        ++statFragments;
        events->after(t, [this, pkt = std::move(pkt)]() mutable {
            link.sendReliable(std::move(pkt));
        });
        done += frag;
    }
    return t;
}

net::Payload
VmmcNode::dmaRead(mem::PhysAddr pa, std::size_t n) const
{
    if (!physMem.isWritten(pa >> mem::kPageShift))
        return net::Payload::zeros(n);
    return net::Payload::filled(n, [&](std::span<std::uint8_t> out) {
        physMem.read(pa, out);
    });
}

void
VmmcNode::serveSend(ProcState &p, const nic::Command &cmd)
{
    auto [dst_node, dst_export] = p.imports.at(cmd.importSlot);
    Tick t = streamOut(p.utlb->pid(), cmd.localVa, cmd.nbytes, dst_node,
                       dst_export, cmd.remoteOffset, cmd.nbytes,
                       nextTransferId++);
    // The data has left host memory once the last fragment is
    // staged: release the outstanding-send lock then.
    if (config.mode == XlateMode::Utlb) {
        ProcId pid = p.utlb->pid();
        VirtAddr va = cmd.localVa;
        std::uint32_t nbytes = cmd.nbytes;
        events->after(t, [this, pid, va, nbytes] {
            proc(pid).utlb->pinManager().unlockRange(
                pageOf(va), pagesSpanned(va, nbytes));
        });
    }
}

void
VmmcNode::serveFetch(ProcState &p, const nic::Command &cmd)
{
    auto [dst_node, dst_export] = p.imports.at(cmd.importSlot);

    // Register the local destination as a transient export so the
    // peer can address its reply fragments.
    ExportEntry entry;
    entry.pid = p.utlb->pid();
    entry.va = cmd.localVa;
    entry.bytes = cmd.nbytes;
    entry.transient = true;
    entry.live = true;
    exports.push_back(entry);
    auto reply_id = static_cast<ExportId>(exports.size() - 1);

    Packet pkt;
    pkt.hdr.type = PacketType::FetchReq;
    pkt.hdr.src = nodeId;
    pkt.hdr.dst = dst_node;
    pkt.hdr.exportId = dst_export;
    pkt.hdr.offset = cmd.remoteOffset;
    pkt.hdr.fetchBytes = cmd.nbytes;
    pkt.hdr.replyExportId = reply_id;
    pkt.hdr.replyOffset = 0;
    // Request processing: one firmware pass, no data DMA.
    Tick t = nicTimings->cacheHitCost;
    events->after(t, [this, pkt = std::move(pkt)]() mutable {
        link.sendReliable(std::move(pkt));
    });
}

void
VmmcNode::serveFetchRequest(const net::PacketHeader &hdr)
{
    if (hdr.exportId >= exports.size() || !exports[hdr.exportId].live) {
        sim::warn("fetch request for unknown export %u on node %u",
                  hdr.exportId, nodeId);
        return;
    }
    const ExportEntry &e = exports[hdr.exportId];
    std::uint64_t max_bytes =
        hdr.offset < e.bytes ? e.bytes - hdr.offset : 0;
    std::uint32_t nbytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(hdr.fetchBytes, max_bytes));
    if (nbytes == 0)
        return;
    // The reply is a transfer from this node, named like its stores.
    streamOut(e.pid, e.va + hdr.offset, nbytes, hdr.src,
              hdr.replyExportId, hdr.replyOffset, nbytes,
              nextTransferId++);
}

void
VmmcNode::depositData(const Packet &pkt)
{
    const auto &hdr = pkt.hdr;
    if (hdr.exportId >= exports.size() || !exports[hdr.exportId].live) {
        sim::warn("deposit for unknown export %u on node %u",
                  hdr.exportId, nodeId);
        return;
    }
    ExportEntry &e = exports[hdr.exportId];
    const net::Payload &payload = pkt.payload;
    if (hdr.offset + payload.size() > e.bytes) {
        sim::warn("deposit beyond export bounds on node %u", nodeId);
        return;
    }

    VirtAddr base = e.redirectVa ? *e.redirectVa : e.va;
    VirtAddr va = base + hdr.offset;

    Tick t = 0;
    std::size_t done = 0;
    while (done < payload.size()) {
        std::size_t frag = std::min(payload.size() - done,
                                    kPageSize - offsetOf(va + done));
        NicLookup nl = xlate(e.pid, pageOf(va + done));
        t += nl.cost;
        t += nicTimings->payloadDmaCost(frag);
        mem::PhysAddr pa = mem::frameAddr(nl.pfn) + offsetOf(va + done);
        if (payload.data())
            physMem.write(pa, {payload.data() + done, frag});
        else
            physMem.zero(pa, frag);
        done += frag;
    }

    statBytesDeposited += payload.size();
    std::uint64_t key = transferKey(hdr.src, hdr.transferId);
    auto [progress, fresh] = depositProgress.tryEmplace(key);
    if (fresh)
        progress->exportId = hdr.exportId;
    progress->bytes += payload.size();

    ExportId id = hdr.exportId;
    std::uint32_t total = hdr.totalBytes;
    events->after(t, [this, id, key, total] {
        lastDeposit = events->now();
        const Progress *done = depositProgress.find(key);
        if (!done || done->bytes < total)
            return;
        depositProgress.erase(key);
        ++statCompleted;
        ExportEntry &entry = exports[id];
        if (entry.transient) {
            // Fetch reply complete: release the destination lock.
            proc(entry.pid).utlb->pinManager().unlockRange(
                pageOf(entry.va), pagesSpanned(entry.va, entry.bytes));
            entry.live = false;
        }
        if (onDeliver)
            onDeliver(id, total);
    });
}

void
VmmcNode::printStats(std::ostream &os) const
{
    os << "---- node " << nodeId << " ----\n"
       << "vmmc.sends                " << sendsPosted() << '\n'
       << "vmmc.fetches              " << fetchesPosted() << '\n'
       << "vmmc.fragments            " << fragmentsSent() << '\n'
       << "vmmc.transfersCompleted   " << transfersCompleted() << '\n'
       << "vmmc.bytesDeposited       " << bytesDeposited() << '\n'
       << "nic.cache.hits            " << cache.hits() << '\n'
       << "nic.cache.misses          " << cache.misses() << '\n'
       << "nic.cache.evictions       " << cache.evictions() << '\n'
       << "nic.sram.usedBytes        " << boardSram.used() << '\n'
       << "nic.dma.bytesToNic        " << dma.bytesToNic() << '\n'
       << "nic.dma.bytesToHost       " << dma.bytesToHost() << '\n'
       << "host.pin.pagesPinned      " << pins.totalPagesPinned()
       << '\n'
       << "host.pin.pagesUnpinned    " << pins.totalPagesUnpinned()
       << '\n'
       << "host.mem.framesAllocated  " << physMem.allocatedFrames()
       << '\n'
       << "link.retransmissions      " << link.retransmissions()
       << '\n'
       << "link.duplicatesDropped    " << link.duplicatesDropped()
       << '\n'
       << "link.acksSent             " << link.acksSent() << '\n';
}

void
VmmcNode::audit(check::AuditReport &report) const
{
    // Lower layers first: driver (host tables, NIC tables, pin
    // facility), the shared cache, the per-process pin managers.
    utlbDriver.audit(report);
    cache.audit(report);
    for (const auto &[pid, p] : procs)
        p.utlb->pinManager().audit(report);

    report.component("vmmc-node", nodeId);
    for (std::size_t id = 0; id < exports.size(); ++id) {
        const ExportEntry &e = exports[id];
        if (!e.live)
            continue;
        report.require(procs.count(e.pid) == 1,
                       "export %zu belongs to unknown process %u", id,
                       e.pid);
        if (config.mode != XlateMode::Utlb || procs.count(e.pid) == 0)
            continue;
        const core::PinManager &mgr =
            procs.at(e.pid).utlb->pinManager();
        mem::Vpn start = pageOf(e.va);
        std::size_t npages = pagesSpanned(e.va, e.bytes);
        for (std::size_t i = 0; i < npages; ++i) {
            // A live export is a standing DMA target: its pages must
            // stay pinned and locked until it is withdrawn (§2/§4.1),
            // or an incoming transfer lands on a reclaimed frame.
            report.require(pins.isPinned(e.pid, start + i),
                           "export %zu page %llu is a DMA target but "
                           "is not pinned",
                           id,
                           static_cast<unsigned long long>(start + i));
            report.require(mgr.isLocked(start + i),
                           "export %zu page %llu is not locked "
                           "against eviction",
                           id,
                           static_cast<unsigned long long>(start + i));
        }
        // Redirect targets are deliberately not checked: redirect()
        // pins on demand but takes no eviction lock, and the NIC
        // fault path re-pins if the target was evicted (§4.1).
    }
    for (const auto &slot : depositProgress) {
        ExportId id = slot.value.exportId;
        report.require(id < exports.size() && exports[id].live,
                       "in-flight transfer targets dead export %u",
                       id);
        report.require(slot.value.bytes > 0,
                       "in-flight transfer to export %u recorded "
                       "zero bytes",
                       id);
    }
}

void
VmmcNode::onPacket(const Packet &pkt)
{
    switch (pkt.hdr.type) {
      case PacketType::Data:
        depositData(pkt);
        break;
      case PacketType::FetchReq:
        serveFetchRequest(pkt.hdr);
        break;
      case PacketType::Ack:
        panic("ack leaked past the reliable endpoint");
    }
}

} // namespace utlb::vmmc
