#include "system/checker.h"

#include <algorithm>
#include <span>

#include "sim/log.h"
#include "system/manycore.h"

namespace widir::sys {

using coherence::DirState;
using coherence::L1State;
using sim::Addr;
using sim::NodeId;

namespace {

/** One cached L1 copy, as gathered for the cross-checks. */
struct Copy
{
    Addr line;
    NodeId node;
    L1State state;
    const coherence::L1Frame *frame;
};

bool
lineLess(const Copy &a, const Copy &b)
{
    return a.line < b.line;
}

bool
lineNodeLess(const Copy &a, const Copy &b)
{
    return a.line != b.line ? a.line < b.line : a.node < b.node;
}

} // namespace

std::vector<std::string>
checkCoherence(Manycore &m)
{
    std::vector<std::string> bad;
    auto complain = [&bad](std::string s) { bad.push_back(std::move(s)); };

    // Gather every cached line, then group the copies by line, each
    // line's copies in node order. A node holds a line at most once,
    // so (line, node) is a total order and std::sort needs no buffer.
    std::size_t total = 0;
    for (NodeId n = 0; n < m.numCores(); ++n)
        total += m.l1(n).array().occupancy();
    std::vector<Copy> copies;
    copies.reserve(total);
    for (NodeId n = 0; n < m.numCores(); ++n) {
        m.l1(n).array().forEach([&](coherence::L1Frame &e) {
            copies.push_back({e.line, n, e.state, &e});
            if (e.state != L1State::I && e.locked) {
                complain(sim::strfmt(
                    "node %u: line %#llx still locked at quiescence", n,
                    static_cast<unsigned long long>(e.line)));
            }
        });
    }
    std::sort(copies.begin(), copies.end(), lineNodeLess);

    for (auto group = copies.begin(); group != copies.end();) {
        const Addr line = group->line;
        const auto group_end =
            std::upper_bound(group, copies.end(), *group, lineLess);
        const std::span<const Copy> view(group, group_end);
        group = group_end;

        std::size_t num_s = 0, num_e = 0, num_m = 0, num_w = 0;
        NodeId cached_owner = sim::kNodeNone; // read only when unique
        for (const Copy &c : view) {
            switch (c.state) {
              case L1State::S: ++num_s; break;
              case L1State::E: ++num_e; cached_owner = c.node; break;
              case L1State::M: ++num_m; cached_owner = c.node; break;
              case L1State::W: ++num_w; break;
              case L1State::I: break;
            }
        }

        NodeId home = m.fabric().homeOf(line);
        auto &dir = m.dir(home);
        const coherence::LlcFrame *llc = dir.llc().lookup(line);
        const coherence::DirEntry *entry = llc;
        std::size_t exclusive = num_e + num_m;

        if (dir.busy(line)) {
            complain(sim::strfmt(
                "line %#llx: directory transaction still in flight "
                "at quiescence",
                static_cast<unsigned long long>(line)));
            continue;
        }

        // SWMR.
        if (exclusive > 1 ||
            (exclusive == 1 && (num_s != 0 || num_w != 0))) {
            complain(sim::strfmt(
                "line %#llx: SWMR violated (%zu E, %zu M, %zu S, %zu W)",
                static_cast<unsigned long long>(line), num_e, num_m,
                num_s, num_w));
            continue;
        }
        if (num_s != 0 && num_w != 0) {
            complain(sim::strfmt(
                "line %#llx: mixed S and W copies",
                static_cast<unsigned long long>(line)));
        }

        if (!llc) {
            complain(sim::strfmt(
                "line %#llx: cached copies but no home directory entry",
                static_cast<unsigned long long>(line)));
            continue;
        }

        switch (entry->state) {
          case DirState::EM: {
            if (exclusive != 1) {
                complain(sim::strfmt(
                    "line %#llx: dir EM but %zu exclusive copies",
                    static_cast<unsigned long long>(line), exclusive));
                break;
            }
            if (entry->owner != cached_owner) {
                complain(sim::strfmt(
                    "line %#llx: dir owner %u but cached owner %u",
                    static_cast<unsigned long long>(line), entry->owner,
                    cached_owner));
            }
            break;
          }
          case DirState::S: {
            if (exclusive != 0 || num_w != 0) {
                complain(sim::strfmt(
                    "line %#llx: dir S but non-S copies exist",
                    static_cast<unsigned long long>(line)));
                break;
            }
            if (!entry->bcast) {
                // Pointers must cover every actual sharer. (A pointer
                // may be stale-present for a copy evicted with a PutS
                // still in flight -- but at quiescence nothing is in
                // flight.)
                for (const Copy &c : view) {
                    if (c.state == L1State::S &&
                        std::find(entry->sharers.begin(),
                                  entry->sharers.end(),
                                  c.node) == entry->sharers.end()) {
                        complain(sim::strfmt(
                            "line %#llx: sharer %u missing from "
                            "directory pointers",
                            static_cast<unsigned long long>(line),
                            c.node));
                    }
                }
            }
            // Data agreement: S copies equal the LLC copy.
            for (const Copy &c : view) {
                if (c.state == L1State::S && !(c.frame->data == llc->data)) {
                    complain(sim::strfmt(
                        "line %#llx: S copy at %u differs from LLC",
                        static_cast<unsigned long long>(line), c.node));
                }
            }
            break;
          }
          case DirState::W: {
            if (exclusive != 0 || num_s != 0) {
                complain(sim::strfmt(
                    "line %#llx: dir W but wired copies exist",
                    static_cast<unsigned long long>(line)));
                break;
            }
            if (entry->sharerCount != num_w) {
                complain(sim::strfmt(
                    "line %#llx: SharerCount %u but %zu W copies",
                    static_cast<unsigned long long>(line),
                    entry->sharerCount, num_w));
            }
            for (const Copy &c : view) {
                if (c.state == L1State::W && !(c.frame->data == llc->data)) {
                    complain(sim::strfmt(
                        "line %#llx: W copy at %u differs from LLC",
                        static_cast<unsigned long long>(line), c.node));
                }
            }
            break;
          }
          case DirState::I:
            complain(sim::strfmt(
                "line %#llx: cached copies but directory says I",
                static_cast<unsigned long long>(line)));
            break;
        }
    }

    // Clean LLC lines must agree with memory; and W/EM/S entries with
    // no corresponding cached copies are stale metadata.
    for (NodeId n = 0; n < m.numCores(); ++n) {
        m.dir(n).llc().forEach([&](coherence::LlcFrame &e) {
            if (!e.dirty) {
                if (!(m.memory().peekLine(e.line) == e.data)) {
                    complain(sim::strfmt(
                        "line %#llx: clean LLC copy at node %u differs "
                        "from memory",
                        static_cast<unsigned long long>(e.line), n));
                }
            }
            const coherence::DirEntry &entry = e;
            // A Dir_3_B entry with the broadcast bit set cannot track
            // evictions, so S+bcast may legitimately outlive every
            // cached copy (the next write broadcast-invalidates and
            // re-establishes precision).
            bool imprecise = entry.state == DirState::S && entry.bcast;
            if (entry.state != DirState::I && !imprecise &&
                !std::binary_search(copies.begin(), copies.end(),
                                    Copy{e.line, 0, L1State::I, nullptr},
                                    lineLess)) {
                complain(sim::strfmt(
                    "line %#llx: directory %s but no cached copies",
                    static_cast<unsigned long long>(e.line),
                    coherence::dirStateName(entry.state)));
            }
        });
    }

    return bad;
}

} // namespace widir::sys
