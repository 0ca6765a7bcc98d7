/**
 * @file
 * Communication trace records (§6).
 *
 * The paper instruments VMMC to trace "each send and remote read
 * request along with a globally-synchronized clock", serializing the
 * five processes on each SMP node (four application processes plus
 * one SVM protocol process) by timestamp, and feeds the result to
 * the UTLB simulator. A TraceRecord is one such communication
 * operation; a Trace is one node's serialized stream.
 */

#ifndef UTLB_TRACE_RECORD_HPP
#define UTLB_TRACE_RECORD_HPP

#include <cstdint>
#include <vector>

#include "mem/page.hpp"

namespace utlb::trace {

/** Kind of communication operation. */
enum class TraceOp : std::uint8_t {
    Send,   //!< remote store from a local buffer
    Fetch,  //!< remote read into a local buffer
};

/** One communication operation (one "translation lookup"). */
struct TraceRecord {
    std::uint64_t seq = 0;      //!< serialized position on the node
    mem::ProcId pid = 0;        //!< process issuing the operation
    TraceOp op = TraceOp::Send;
    mem::VirtAddr va = 0;       //!< local buffer virtual address
    std::uint32_t nbytes = 0;   //!< transfer length
};

/** One node's serialized communication trace. */
using Trace = std::vector<TraceRecord>;

/** Aggregate shape of a trace (compare against Table 3). */
struct TraceShape {
    std::size_t lookups = 0;         //!< records
    std::size_t distinctPages = 0;   //!< communication footprint
    std::size_t processes = 0;       //!< distinct pids
    double pagesPerLookup = 0.0;     //!< mean pages spanned
    std::uint64_t totalBytes = 0;
};

/**
 * A trace's pages numbered densely. A page touch is one page one
 * record spans; each distinct (pid, vpn) gets the next id in order
 * of its first touch.
 */
struct PageIds {
    std::vector<std::uint32_t> touches;  //!< id of each touch, in order
    std::size_t distinct = 0;            //!< ids handed out
};

/**
 * Number @p trace's pages in one hashed pass: the page touches are
 * counted first, so the id map is sized once and never rehashes.
 */
PageIds indexPages(const Trace &trace);

/** Measure a trace's shape (its distinctPages is indexPages'). */
TraceShape measure(const Trace &trace);

} // namespace utlb::trace

#endif // UTLB_TRACE_RECORD_HPP
