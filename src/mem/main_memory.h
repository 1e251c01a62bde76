/**
 * @file
 * Off-chip main memory: functional backing store plus a timing model of
 * the machine's four memory controllers (Table III: 80-cycle round
 * trip).
 *
 * Lines are interleaved across controllers by line number. Each
 * controller serializes requests at a configurable issue interval,
 * modeling finite memory bandwidth; latency is the fixed round trip
 * plus any queuing delay at the controller.
 */

#ifndef WIDIR_MEM_MAIN_MEMORY_H
#define WIDIR_MEM_MAIN_MEMORY_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/address.h"
#include "mem/flat_addr_map.h"
#include "mem/line_data.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace widir::mem {

using sim::Simulator;
using sim::Tick;

/** Timing + functional model of off-chip DRAM behind N controllers. */
class MainMemory
{
  public:
    struct Config
    {
        std::uint32_t numControllers = 4;
        Tick roundTripLatency = 80; ///< load-to-use, unloaded (cycles)
        Tick issueInterval = 4;     ///< min cycles between requests/ctrl
    };

    MainMemory(Simulator &sim, const Config &cfg)
        : sim_(sim), cfg_(cfg),
          nextFree_(cfg.numControllers, 0)
    {
    }

    /**
     * Functional read of a line (zero-filled on first touch). Timing is
     * modeled separately via readLine/writeLine.
     */
    const LineData &
    peekLine(Addr addr) const
    {
        static const LineData zero{};
        auto it = store_.find(lineNumber(addr));
        return it == store_.end() ? zero : it->second;
    }

    /** Functional write of a full line. */
    void
    pokeLine(Addr addr, const LineData &data)
    {
        store_[lineNumber(addr)] = data;
    }

    /**
     * Timed read: @p done(const LineData &) fires with the line data
     * after the round trip plus controller queuing. It rides in the
     * event inline, so this, the line and its capture must fit the
     * 48-byte budget.
     */
    template <typename Done>
    void
    readLine(Addr addr, Done &&done)
    {
        Tick latency = serviceLatency(addr);
        ++reads_;
        Addr line = lineAlign(addr);
        sim_.scheduleInline(latency,
                            [this, line, done = std::forward<Done>(done)] {
            done(peekLine(line));
        });
    }

    /**
     * Timed write-back of a full line. The write becomes visible to
     * peekLine() when it performs at the memory, after the round trip
     * plus controller queuing.
     */
    void
    writeLine(Addr addr, const LineData &data)
    {
        Tick latency = serviceLatency(addr);
        ++writes_;
        Addr line = lineAlign(addr);
        // The 64-byte payload waits in a pool slot until the write
        // performs; capturing it by value would push every writeback
        // onto the event queue's heap fallback.
        std::uint32_t slot;
        if (freeWrites_.empty()) {
            slot = static_cast<std::uint32_t>(pendingWrites_.size());
            pendingWrites_.push_back(data);
        } else {
            slot = freeWrites_.back();
            freeWrites_.pop_back();
            pendingWrites_[slot] = data;
        }
        sim_.scheduleInline(latency, [this, line, slot] {
            pokeLine(line, pendingWrites_[slot]);
            freeWrites_.push_back(slot);
        });
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

    /** Backing-store index rehashes (host_map_rehashes, docs/PERF.md). */
    std::uint64_t mapRehashes() const { return store_.rehashes(); }

  private:
    /** Queue at the owning controller and return total latency. */
    Tick
    serviceLatency(Addr addr)
    {
        std::uint32_t ctrl = static_cast<std::uint32_t>(
            lineNumber(addr) % cfg_.numControllers);
        Tick now = sim_.now();
        Tick start = std::max(now, nextFree_[ctrl]);
        nextFree_[ctrl] = start + cfg_.issueInterval;
        return (start - now) + cfg_.roundTripLatency;
    }

    Simulator &sim_;
    Config cfg_;
    std::vector<Tick> nextFree_;
    FlatAddrMap<LineData> store_;
    /** In-flight writeback payloads, recycled through freeWrites_. */
    std::vector<LineData> pendingWrites_;
    std::vector<std::uint32_t> freeWrites_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace widir::mem

#endif // WIDIR_MEM_MAIN_MEMORY_H
