#include "core/translation_table.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "sim/log.hpp"

namespace utlb::core {

using mem::Pfn;
using mem::Vpn;
using sim::fatal;
using sim::panic;

// ---------------------------------------------------------------------
// NicTranslationTable
// ---------------------------------------------------------------------

NicTranslationTable::NicTranslationTable(nic::Sram &board_sram,
                                         mem::ProcId pid,
                                         std::size_t entries,
                                         mem::Pfn garbage_frame)
    : sram(&board_sram), procId(pid), numEntries(entries),
      garbagePfn(garbage_frame)
{
    if (entries == 0)
        fatal("per-process UTLB table requires at least one entry");
    auto addr = sram->alloc("utlb-table." + std::to_string(pid),
                            entries * 4);
    if (!addr)
        fatal("NIC SRAM exhausted allocating %zu-entry table for "
              "pid %u", entries, pid);
    base = *addr;
    for (std::size_t i = 0; i < entries; ++i)
        sram->writeWord(base + static_cast<nic::SramAddr>(i * 4),
                        static_cast<std::uint32_t>(garbage_frame));
}

NicTranslationTable::~NicTranslationTable()
{
    // Return the region so a churning fleet can recycle the board:
    // the driver serializes this (unregister path) against creates.
    sram->free("utlb-table." + std::to_string(procId));
}

void
NicTranslationTable::install(UtlbIndex index, Pfn pfn)
{
    if (index >= numEntries)
        panic("install at out-of-range UTLB index %u", index);
    if (!isValid(index) && pfn != garbagePfn)
        ++numValid;
    else if (isValid(index) && pfn == garbagePfn)
        --numValid;
    sram->writeWord(base + index * 4, static_cast<std::uint32_t>(pfn));
}

void
NicTranslationTable::invalidate(UtlbIndex index)
{
    install(index, garbagePfn);
}

Pfn
NicTranslationTable::entry(UtlbIndex index) const
{
    // User-submitted indices are deliberately not validated: the
    // garbage-page initialization makes any slot safe to use, and an
    // out-of-range index simply behaves like a garbage slot.
    if (index >= numEntries)
        return garbagePfn;
    return sram->readWord(base + index * 4);
}

bool
NicTranslationTable::isValid(UtlbIndex index) const
{
    return index < numEntries && entry(index) != garbagePfn;
}

void
NicTranslationTable::audit(check::AuditReport &report) const
{
    report.component("nic-table", procId);
    report.require(base + numEntries * 4 <= sram->capacity(),
                   "table region [%u, +%zu slots) exceeds SRAM "
                   "capacity %zu",
                   base, numEntries, sram->capacity());
    report.require(numValid <= numEntries,
                   "valid count %zu exceeds table size %zu",
                   numValid, numEntries);

    std::size_t live = 0;
    for (std::size_t i = 0; i < numEntries; ++i) {
        if (sram->readWord(base + static_cast<nic::SramAddr>(i * 4))
            != garbagePfn) {
            ++live;
        }
    }
    report.require(live == numValid,
                   "cached valid count %zu != SRAM recount %zu",
                   numValid, live);
}

// ---------------------------------------------------------------------
// HostPageTable
// ---------------------------------------------------------------------

namespace {

constexpr std::uint64_t kValidBit = std::uint64_t{1} << 63;

} // namespace

// ---- HostPageTable --------------------------------------------------

HostPageTable::HostPageTable(mem::PhysMemory &host_mem, mem::ProcId pid,
                             nic::Sram *board_sram,
                             std::size_t dir_slots)
    : hostMem(&host_mem), procId(pid),
      statsGrp("host_table" + std::to_string(pid))
{
    if (board_sram) {
        // The top-level directory lives in NIC SRAM (§3.3) so that a
        // cache miss costs one SRAM reference plus one DMA.
        auto addr = board_sram->alloc(
            "utlb-dir." + std::to_string(pid), dir_slots * 4);
        if (!addr)
            fatal("NIC SRAM exhausted allocating UTLB directory for "
                  "pid %u", pid);
        boardSram = board_sram;
    }
}

HostPageTable::~HostPageTable()
{
    // Free leaves in ascending index order, so the order later
    // allocations reuse the frames in does not depend on the hash.
    std::vector<std::pair<std::uint64_t, Pfn>> leaves;
    for (const auto &[idx, de] : dir) {
        if (!de.swapped && de.leafFrame != mem::kInvalidPfn)
            leaves.emplace_back(idx, de.leafFrame);
    }
    std::sort(leaves.begin(), leaves.end());
    for (const auto &[idx, frame] : leaves)
        hostMem->freeFrame(frame);
    if (boardSram)
        boardSram->free("utlb-dir." + std::to_string(procId));
}

HostPageTable::DirEntry *
HostPageTable::residentLeaf(Vpn vpn)
{
    DirEntry *de = dir.find(dirIndexOf(vpn));
    if (!de || de->swapped)
        return nullptr;
    return de;
}

const HostPageTable::DirEntry *
HostPageTable::residentLeaf(Vpn vpn) const
{
    const DirEntry *de = dir.find(dirIndexOf(vpn));
    if (!de || de->swapped)
        return nullptr;
    return de;
}

std::uint64_t
HostPageTable::entryAddr(const DirEntry &de, Vpn vpn) const
{
    return mem::frameAddr(de.leafFrame)
        + (vpn % kLeafEntries) * sizeof(std::uint64_t);
}

bool
HostPageTable::set(Vpn vpn, Pfn pfn)
{
    auto [dePtr, inserted] = dir.tryEmplace(dirIndexOf(vpn));
    DirEntry &de = *dePtr;
    if (inserted) {
        auto frame = hostMem->allocFrame(kKernelPid);
        if (!frame) {
            dir.erase(dirIndexOf(vpn));
            return false;
        }
        de.leafFrame = *frame;
    } else if (de.swapped) {
        if (!swapInLeaf(vpn))
            return false;
    }

    std::uint64_t word = kValidBit | pfn;
    std::uint8_t buf[8];
    std::memcpy(buf, &word, 8);

    // Track the valid count by reading the previous word.
    std::uint8_t prev[8];
    hostMem->read(entryAddr(de, vpn), prev);
    std::uint64_t prev_word;
    std::memcpy(&prev_word, prev, 8);
    if (!(prev_word & kValidBit))
        ++numValid;

    hostMem->write(entryAddr(de, vpn), buf);
    ++statInstalls;
    return true;
}

bool
HostPageTable::clear(Vpn vpn)
{
    DirEntry *de = residentLeaf(vpn);
    if (!de)
        return false;
    std::uint8_t buf[8];
    hostMem->read(entryAddr(*de, vpn), buf);
    std::uint64_t word;
    std::memcpy(&word, buf, 8);
    if (!(word & kValidBit))
        return false;
    word = 0;
    std::memcpy(buf, &word, 8);
    hostMem->write(entryAddr(*de, vpn), buf);
    --numValid;
    ++statClears;
    return true;
}

std::optional<Pfn>
HostPageTable::get(Vpn vpn) const
{
    const DirEntry *de = residentLeaf(vpn);
    if (!de)
        return std::nullopt;
    std::uint8_t buf[8];
    hostMem->read(entryAddr(*de, vpn), buf);
    std::uint64_t word;
    std::memcpy(&word, buf, 8);
    if (!(word & kValidBit))
        return std::nullopt;
    return word & ~kValidBit;
}

std::vector<std::optional<Pfn>>
HostPageTable::readRun(Vpn vpn, std::size_t n) const
{
    std::vector<std::optional<Pfn>> out;
    readRun(vpn, n, out);
    return out;
}

void
HostPageTable::readRun(Vpn vpn, std::size_t n,
                       std::vector<std::optional<Pfn>> &out,
                       bool concurrent) const
{
    out.clear();
    const DirEntry *de = residentLeaf(vpn);
    if (!de)
        return;

    // Concurrent-mode views may read one table from several threads
    // (serviceMiss holds no lock here); their bump must not tear. A
    // single-threaded reader skips the locked add.
    if (concurrent)
        statRunReads.addRelaxed(1);
    else
        ++statRunReads;
    std::size_t in_leaf = kLeafEntries
        - static_cast<std::size_t>(vpn % kLeafEntries);
    std::size_t count = std::min(n, in_leaf);
    out.reserve(count);

    // The run never crosses the leaf boundary, so it is one
    // physically contiguous block — read it in a single transfer,
    // like the DMA it models.
    std::uint8_t buf[mem::kPageSize];
    hostMem->read(entryAddr(*de, vpn), std::span(buf, count * 8));
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t word;
        std::memcpy(&word, buf + i * 8, 8);
        if (word & kValidBit)
            out.emplace_back(word & ~kValidBit);
        else
            out.emplace_back(std::nullopt);
    }
}

bool
HostPageTable::swapOutLeaf(Vpn vpn)
{
    DirEntry *de = residentLeaf(vpn);
    if (!de)
        return false;
    de->diskBlock.resize(mem::kPageSize);
    hostMem->read(mem::frameAddr(de->leafFrame), de->diskBlock);
    hostMem->freeFrame(de->leafFrame);
    de->leafFrame = mem::kInvalidPfn;
    de->swapped = true;
    ++statSwapOuts;
    return true;
}

bool
HostPageTable::swapInLeaf(Vpn vpn)
{
    DirEntry *found = dir.find(dirIndexOf(vpn));
    if (!found || !found->swapped)
        return false;
    DirEntry &de = *found;
    auto frame = hostMem->allocFrame(kKernelPid);
    if (!frame)
        return false;
    de.leafFrame = *frame;
    hostMem->write(mem::frameAddr(de.leafFrame), de.diskBlock);
    de.diskBlock.clear();
    de.diskBlock.shrink_to_fit();
    de.swapped = false;
    ++statSwapIns;
    return true;
}

bool
HostPageTable::leafSwappedOut(Vpn vpn) const
{
    const DirEntry *de = dir.find(dirIndexOf(vpn));
    return de && de->swapped;
}

void
HostPageTable::audit(check::AuditReport &report) const
{
    report.component("host-page-table", procId);

    std::size_t live = 0;
    for (const auto &[idx, de] : dir) {
        if (de.swapped) {
            report.require(de.leafFrame == mem::kInvalidPfn,
                           "swapped leaf %llu still names frame %llu",
                           static_cast<unsigned long long>(idx),
                           static_cast<unsigned long long>(de.leafFrame));
            report.require(de.diskBlock.size() == mem::kPageSize,
                           "swapped leaf %llu disk block is %zu bytes, "
                           "expected %zu",
                           static_cast<unsigned long long>(idx),
                           de.diskBlock.size(), mem::kPageSize);
            // Count valid entries inside the swapped image too: swap
            // must preserve the table contents bit-for-bit.
            for (std::size_t off = 0; off + 8 <= de.diskBlock.size();
                 off += 8) {
                std::uint64_t word;
                std::memcpy(&word, de.diskBlock.data() + off, 8);
                if (word & kValidBit)
                    ++live;
            }
            continue;
        }
        if (de.leafFrame == mem::kInvalidPfn) {
            report.addf("resident leaf %llu has no frame",
                        static_cast<unsigned long long>(idx));
            continue;
        }
        report.require(hostMem->isAllocated(de.leafFrame),
                       "leaf %llu frame %llu is not allocated",
                       static_cast<unsigned long long>(idx),
                       static_cast<unsigned long long>(de.leafFrame));
        report.require(hostMem->ownerOf(de.leafFrame) == kKernelPid,
                       "leaf %llu frame %llu not owned by the kernel",
                       static_cast<unsigned long long>(idx),
                       static_cast<unsigned long long>(de.leafFrame));
        report.require(de.diskBlock.empty(),
                       "resident leaf %llu still holds a disk block",
                       static_cast<unsigned long long>(idx));
        for (std::size_t e = 0; e < kLeafEntries; ++e) {
            std::uint8_t buf[8];
            hostMem->read(mem::frameAddr(de.leafFrame) + e * 8, buf);
            std::uint64_t word;
            std::memcpy(&word, buf, 8);
            if (word & kValidBit)
                ++live;
        }
    }
    report.require(live == numValid,
                   "cached valid count %zu != leaf recount %zu",
                   numValid, live);
}

} // namespace utlb::core
