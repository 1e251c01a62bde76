/**
 * @file
 * Model-checking-style state explorer for the protocol table
 * (core/protocol_table.h). Small machines (4 nodes, optionally tiny
 * caches) are driven through directed scenarios, exhaustive
 * small-depth interleavings, and seeded random walks, while a tracer
 * sink accumulates every observed `L1Transition` / `DirTransition`
 * edge keyed by (side, from, to, note). The explorer then checks the
 * table in both directions:
 *
 *  - soundness: every observed edge is a noted rule row (nothing the
 *    controllers trace is missing from the table);
 *  - completeness: every noted rule key is observed (every table edge
 *    is reachable).
 *
 * Every run also streams its trace through a strict
 * `sys::TraceLegalityChecker` and ends with `sys::checkCoherence`.
 *
 * The executed tables (`dirRules()`, `l1TxnRules()`, `dirTxnRules()`)
 * are checked the same two ways. Soundness is structural: an event no
 * row covers panics the run, so every step a controller takes is a
 * row. Completeness: the explorer sums every controller's per-row hit
 * counts, and every row must be taken.
 *
 * Faults only delay frames, so fault storms must stay coherent, legal
 * and atomic like clean ones.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/protocol_table.h"
#include "mem/address.h"
#include "system/checker.h"
#include "system/manycore.h"
#include "system/trace_sinks.h"

namespace {

using namespace widir;
using coherence::dirRules;
using coherence::dirStateName;
using coherence::l1Rules;
using coherence::l1StateName;
using cpu::Task;
using cpu::Thread;
using sim::Addr;
using sim::TraceKind;
using sim::TraceRecord;
using sys::Manycore;
using sys::Program;
using sys::SystemConfig;
using sys::TraceLegalityChecker;

/** One coverage target: a traced transition with its exact note. */
using EdgeKey = std::tuple<bool /*dirSide*/, std::uint8_t /*from*/,
                           std::uint8_t /*to*/, std::string /*note*/>;

std::string
keyName(const EdgeKey &k)
{
    auto [dir, from, to, note] = k;
    std::string out = dir ? "dir " : "L1  ";
    if (dir)
        out += std::string(dirStateName(
                   static_cast<coherence::DirState>(from))) +
               " -> " +
               dirStateName(static_cast<coherence::DirState>(to));
    else
        out += std::string(l1StateName(
                   static_cast<coherence::L1State>(from))) +
               " -> " + l1StateName(static_cast<coherence::L1State>(to));
    return out + " \"" + note + "\"";
}

/**
 * Coverage targets from the tables: every noted rule key. An
 * in-transaction row traces from the state its transaction holds the
 * line in to each state it may end in.
 */
std::set<EdgeKey>
tableTargets()
{
    std::set<EdgeKey> t;
    for (const coherence::L1Rule &r : l1Rules()) {
        if (r.note)
            t.insert({false, static_cast<std::uint8_t>(r.from),
                      static_cast<std::uint8_t>(r.to), r.note});
    }
    for (const coherence::DirRule &r : dirRules()) {
        if (r.note)
            t.insert({true, static_cast<std::uint8_t>(r.from),
                      static_cast<std::uint8_t>(r.to), r.note});
    }
    for (const coherence::DirTxnRule &r : coherence::dirTxnRules()) {
        if (!r.note)
            continue;
        for (std::uint8_t to = 0; to < coherence::kNumDirStates; ++to)
            if ((r.ends >> to) & 1u)
                t.insert({true,
                          static_cast<std::uint8_t>(
                              coherence::dirTxnState(r.txn)),
                          to, r.note});
    }
    return t;
}

/** Runs programs and accumulates every traced transition edge. */
class Explorer
{
  public:
    std::set<EdgeKey> observed;
    /** Per-row hits of dirRules(), summed over every directory. */
    std::array<std::uint64_t, coherence::kNumDirRules> stableRuleHits{};
    /** Per-row hits of dirTxnRules(), summed over every directory. */
    std::array<std::uint64_t, coherence::kNumDirTxnRules> txnRuleHits{};
    /** Per-row hits of l1TxnRules(), summed over every L1. */
    std::array<std::uint64_t, coherence::kNumL1TxnRules> l1TxnRuleHits{};
    std::uint64_t runs = 0;

    void
    run(const SystemConfig &cfg, const Program &program)
    {
        Manycore m(cfg);
        TraceLegalityChecker legality(true);
        sim::Tracer &tracer = m.simulator().tracer();
        tracer.setEnabled(true);
        tracer.addSink(legality.sink());
        tracer.addSink([this](const TraceRecord &r) {
            if (r.kind == TraceKind::L1Transition)
                observed.insert({false, r.from, r.to,
                                 r.note ? r.note : ""});
            else if (r.kind == TraceKind::DirTransition)
                observed.insert({true, r.from, r.to,
                                 r.note ? r.note : ""});
        });
        m.run(program);
        ++runs;
        for (sim::NodeId n = 0; n < m.numCores(); ++n) {
            const auto &stable = m.dir(n).stableRuleHits();
            for (std::size_t i = 0; i < stable.size(); ++i)
                stableRuleHits[i] += stable[i];
            const auto &hits = m.dir(n).txnRuleHits();
            for (std::size_t i = 0; i < hits.size(); ++i)
                txnRuleHits[i] += hits[i];
            const auto &l1_hits = m.l1(n).txnRuleHits();
            for (std::size_t i = 0; i < l1_hits.size(); ++i)
                l1TxnRuleHits[i] += l1_hits[i];
        }
        auto violations = sys::checkCoherence(m);
        EXPECT_TRUE(violations.empty())
            << "run " << runs << ": " << violations.front();
        const auto &illegal = legality.violations();
        EXPECT_TRUE(illegal.empty())
            << "run " << runs << ": " << illegal.front();
    }

    /** Soundness: everything observed must be a noted table row. */
    void
    expectObservedSubsetOfTable() const
    {
        const std::set<EdgeKey> table = tableTargets();
        for (const EdgeKey &k : observed) {
            EXPECT_TRUE(table.count(k))
                << "controller traced an edge the protocol table does "
                << "not list: " << keyName(k);
        }
    }

    /** Completeness: every table edge was observed. */
    void
    expectEveryTableEdgeObserved() const
    {
        for (const EdgeKey &k : tableTargets()) {
            EXPECT_TRUE(observed.count(k))
                << "table edge never reached by the explorer: "
                << keyName(k);
        }
    }

    /** Every executed row (Table II and in-transaction) was taken. */
    void
    expectRulesTaken() const
    {
        auto stable = coherence::dirRules();
        for (std::size_t i = 0; i < stable.size(); ++i) {
            const coherence::DirRule &r = stable[i];
            EXPECT_GT(stableRuleHits[i], 0u)
                << "Table II row " << i << " never taken: "
                << dirStateName(r.from) << " "
                << coherence::dirEventName(r.event) << " ["
                << coherence::dirGuardText(r.guard) << "] -> "
                << coherence::dirStepName(r.step);
        }
        auto rules = coherence::dirTxnRules();
        for (std::size_t i = 0; i < rules.size(); ++i) {
            const coherence::DirTxnRule &r = rules[i];
            EXPECT_GT(txnRuleHits[i], 0u)
                << "in-transaction row " << i << " never taken: "
                << coherence::dirTxnTypeName(r.txn) << " "
                << coherence::dirEventName(r.event) << " -> "
                << coherence::dirStepName(r.step);
        }
        auto l1_rules = coherence::l1TxnRules();
        for (std::size_t i = 0; i < l1_rules.size(); ++i) {
            const coherence::L1TxnRule &r = l1_rules[i];
            EXPECT_GT(l1TxnRuleHits[i], 0u)
                << "L1 in-transaction row " << i << " never taken: "
                << coherence::l1PhaseName(r.phase) << " "
                << coherence::l1EventName(r.event) << " -> "
                << coherence::l1StepName(r.step);
        }
    }

    /** Times the L1 row for (@p phase, @p ev) was taken. */
    std::uint64_t
    l1Hits(coherence::L1Phase phase, coherence::L1Event ev) const
    {
        int row = coherence::l1TxnRuleFor(phase, ev);
        return row < 0 ? 0 : l1TxnRuleHits[static_cast<std::size_t>(row)];
    }
};

// ---------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------

/**
 * Lines homed at node 0 of a 4-node machine (lineNumber % 4 == 0),
 * all mapping to L1 set 0 of the tiny 256 B / 2-way L1 (even line
 * numbers) and to the single set of the tiny 512 B / 8-way LLC bank.
 */
Addr
hl(unsigned i)
{
    return 0x100000 + static_cast<Addr>(i) * 4 * mem::kLineBytes;
}

/**
 * Synchronization flags on odd line numbers: homed away from node 0
 * and mapping to L1 set 1, so spinning never evicts the home-0 lines
 * a tiny-L1 scenario is steering.
 */
Addr
flag(unsigned i)
{
    return 0x200000 +
           static_cast<Addr>(2 * i + 1) * mem::kLineBytes;
}

/** Spin until the word at @p f reaches @p v (coroutine body helper). */
#define AWAIT_FLAG(t, f, v)                                             \
    for (;;) {                                                          \
        if ((co_await (t).load(f)) >= (v))                              \
            break;                                                      \
        co_await (t).compute(20);                                       \
    }

#define BUMP_FLAG(t, f)                                                 \
    do {                                                                \
        co_await (t).fetchAdd((f), 1);                                  \
        co_await (t).fence();                                           \
    } while (0)

// ---------------------------------------------------------------------
// Configs
// ---------------------------------------------------------------------

SystemConfig
smallWidir()
{
    return SystemConfig::widir(4);
}

/** Aggressive wireless knobs: any 2+-sharer upgrade starts a census. */
SystemConfig
wirelessCfg()
{
    SystemConfig cfg = smallWidir();
    cfg.protocol.maxWiredSharers = 1;
    cfg.protocol.updateCountThreshold = 2;
    return cfg;
}

/** 256 B / 2-way L1: two sets, so three home-0 lines force evictions. */
void
tinyL1(SystemConfig &cfg)
{
    cfg.l1.sizeBytes = 256;
    cfg.l1.assoc = 2;
}

/** 512 B / 8-way LLC bank: one set, so nine home-0 lines force recalls. */
void
tinyLlc(SystemConfig &cfg)
{
    cfg.llc.sizeBytes = 512;
    cfg.llc.assoc = 8;
}

// ---------------------------------------------------------------------
// Directed scenarios
// ---------------------------------------------------------------------

/** Wired MESI basics: fills, forwards, upgrades, invalidations. */
Task
mesiBasics(Thread &t)
{
    const Addr A = hl(0), B = hl(1), C = hl(2), D = hl(3);
    const Addr F = flag(0);
    switch (t.id()) {
      case 0:
        co_await t.load(A);           // I->E (dir I->EM, "fetch")
        co_await t.store(A, 1);       // E->M "store"
        co_await t.load(B);           // I->E
        co_await t.fetchAdd(B, 1);    // E->M "rmw"
        co_await t.fence();
        BUMP_FLAG(t, F);              // -> 1
        AWAIT_FLAG(t, F, 5);
        co_await t.load(D);           // I->E
        co_await t.fence();
        BUMP_FLAG(t, F);              // -> 6
        break;
      case 1:
        AWAIT_FLAG(t, F, 1);
        co_await t.load(A);           // core0 M->S "FwdGetS"; I->S fill
        co_await t.fence();
        BUMP_FLAG(t, F);              // -> 2
        AWAIT_FLAG(t, F, 3);
        co_await t.store(A, 2);       // upgrade: dir S->EM "InvColl",
                                      // sharers S->I "Inv", S->M fill
        co_await t.fence();
        BUMP_FLAG(t, F);              // -> 4
        AWAIT_FLAG(t, F, 6);
        co_await t.load(D);           // core0 E->S "FwdGetS"
        co_await t.fence();
        BUMP_FLAG(t, F);              // -> 7
        break;
      case 2:
        AWAIT_FLAG(t, F, 2);
        co_await t.load(A);           // dir S grows; I->S fill
        co_await t.fence();
        BUMP_FLAG(t, F);              // -> 3
        AWAIT_FLAG(t, F, 4);
        co_await t.store(A, 3);       // dir EM->EM "FwdGetX";
                                      // core1 M->I "FwdGetX"; I->M fill
        co_await t.load(C);           // I->E
        co_await t.fence();
        BUMP_FLAG(t, F);              // -> 5
        break;
      case 3:
        AWAIT_FLAG(t, F, 7);
        co_await t.store(C, 4);       // core2 E->I "FwdGetX"
        co_await t.load(A);           // core2 M->S "FwdGetS"
        co_await t.store(A, 5);       // sole... 2 sharers: InvColl again
        co_await t.fence();
        break;
    }
    co_return;
}

/** Tiny-L1 capacity evictions: PutS/PutE/PutM and LLC re-hits. */
/**
 * Dir_iB overflow (Baseline, two pointers): the third reader sets the
 * broadcast bit, and the writer then invalidates by broadcast.
 */
Task
pointerOverflow(Thread &t)
{
    const Addr L = hl(0);
    const Addr F = flag(8);
    co_await t.load(L);
    co_await t.fence();
    BUMP_FLAG(t, F);
    AWAIT_FLAG(t, F, 4);
    if (t.id() == 3)
        co_await t.store(L, 1);
    co_return;
}

Task
evictions(Thread &t)
{
    const Addr P = hl(0), Q = hl(1), R = hl(2);
    const Addr F = flag(1);
    switch (t.id()) {
      case 0:
        co_await t.load(P);      // fetch, I->E
        co_await t.load(Q);
        co_await t.load(R);      // evicts P: E->I "evict", dir "PutE"
        co_await t.load(P);      // LLC hit: dir I->EM "GetS"; evicts Q
        co_await t.store(P, 1);  // E->M
        co_await t.load(Q);      // evicts R (PutE)
        co_await t.load(R);      // evicts P: M->I "evict", dir "PutM"
        co_await t.store(P, 2);  // LLC hit: dir I->EM "GetX"; I->M fill
        co_await t.fence();
        BUMP_FLAG(t, F);         // -> 1
        AWAIT_FLAG(t, F, 2);
        co_await t.load(Q);      // evict oldest of {P,R}
        co_await t.load(R);      // evict the other; P leaves in S:
                                 // S->I "evict"; last sharer: dir "PutS"
        co_await t.fence();
        BUMP_FLAG(t, F);         // -> 3
        break;
      case 1:
        AWAIT_FLAG(t, F, 1);
        co_await t.load(P);      // FwdGetS: core0 M->S, dir EM->S
        co_await t.load(Q);
        co_await t.load(R);      // evicts P in S: "evict" + PutS
        co_await t.fence();
        BUMP_FLAG(t, F);         // -> 2
        break;
      default:
        break;
    }
    co_return;
}

/** Tiny-LLC recalls: RecallEM (owner in E and in M) and RecallS. */
Task
recalls(Thread &t)
{
    const Addr F = flag(2);
    switch (t.id()) {
      case 0:
        co_await t.store(hl(0), 1); // A0 owned in M
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 1
        AWAIT_FLAG(t, F, 2);
        co_await t.load(hl(9));     // 10th home-0 line: keeps churning
        co_await t.fence();
        break;
      case 1:
        AWAIT_FLAG(t, F, 1);
        // Fill the single home-0 LLC set: the 9th line recalls A0
        // (owner in M -> Inv needData -> M->I "Inv", dir "recall");
        // further fills recall this core's own E lines (E->I "Inv").
        for (unsigned i = 1; i <= 8; ++i)
            co_await t.load(hl(i));
        co_await t.load(hl(0));     // refetch; evicts an E line
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 2
        AWAIT_FLAG(t, F, 4);
        for (unsigned i = 10; i <= 17; ++i)
            co_await t.load(hl(i)); // churn: recalls the shared A0
                                    // (sharers S->I "Inv", dir S->I
                                    // "recall")
        co_await t.fence();
        break;
      case 2:
        AWAIT_FLAG(t, F, 2);
        co_await t.load(hl(0));     // share A0 ...
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 3
        break;
      case 3:
        AWAIT_FLAG(t, F, 3);
        co_await t.load(hl(0));     // ... S with two sharers
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 4
        break;
    }
    co_return;
}

/** Census, joins, wireless updates, self-invalidation, teardown. */
Task
wireless(Thread &t)
{
    const Addr L = hl(0);
    const Addr F = flag(3);
    switch (t.id()) {
      case 0:
        co_await t.load(L);        // I->E
        co_await t.fence();
        BUMP_FLAG(t, F);           // -> 1
        AWAIT_FLAG(t, F, 3);
        // Three S sharers > maxWiredSharers=1: census S->W
        // (sharers trace "BrWirUpgr", dir traces "census").
        co_await t.store(L, 1);
        co_await t.fence();
        BUMP_FLAG(t, F);           // -> 4
        AWAIT_FLAG(t, F, 6);
        // Consecutive updates with no remote access: every other
        // sharer trips updateCountThreshold=2, self-invalidates
        // (W->I "UpdateCount") and leaves wired (dir "PutW"); the
        // count draining to 1 tears the group down (W->S "WirDwgr").
        co_await t.store(L, 2);
        co_await t.store(L, 3);
        co_await t.fence();
        co_await t.compute(3000);  // let the teardown settle
        co_await t.store(L, 4);    // sole sharer: dir S->EM "upgrade"
        co_await t.fence();
        break;
      case 1:
        AWAIT_FLAG(t, F, 1);
        co_await t.load(L);        // FwdGetS -> S
        co_await t.fence();
        BUMP_FLAG(t, F);           // -> 2
        AWAIT_FLAG(t, F, 4);
        co_await t.load(L);        // re-read own W copy
        co_await t.fence();
        BUMP_FLAG(t, F);           // -> 5
        break;
      case 2:
        AWAIT_FLAG(t, F, 2);
        co_await t.load(L);        // third sharer
        co_await t.fence();
        BUMP_FLAG(t, F);           // -> 3
        break;
      case 3:
        AWAIT_FLAG(t, F, 5);
        co_await t.load(L);        // W join: WirUpgr fill I->W,
                                   // dir W->W "join"
        co_await t.fence();
        BUMP_FLAG(t, F);           // -> 6
        break;
    }
    co_return;
}

/** Tiny-L1 wireless: W evictions drain the group to a lone survivor. */
Task
wirelessEvict(Thread &t)
{
    const Addr P = hl(0), Q = hl(1), R = hl(2);
    const Addr F = flag(4);
    switch (t.id()) {
      case 0:
        co_await t.load(P);
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 1
        AWAIT_FLAG(t, F, 3);
        co_await t.store(P, 1);     // census: {0,1,2} -> W, count 3
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 4
        AWAIT_FLAG(t, F, 6);
        co_await t.load(P);         // survivor ends in S (or W)
        co_await t.fence();
        break;
      case 1:
        AWAIT_FLAG(t, F, 1);
        co_await t.load(P);
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 2
        AWAIT_FLAG(t, F, 4);
        co_await t.load(Q);
        co_await t.load(R);         // evicts P: W->I "evict";
                                    // dir count 3->2 "PutW"
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 5
        break;
      case 2:
        AWAIT_FLAG(t, F, 2);
        co_await t.load(P);
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 3
        AWAIT_FLAG(t, F, 5);
        co_await t.load(Q);
        co_await t.load(R);         // evicts P: count 2->1 ->
                                    // WirDwgr teardown, W->S
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 6
        break;
      default:
        break;
    }
    co_return;
}

/**
 * Tiny-L1 wireless: every group member evicts back-to-back, so the
 * last PutW races the WirDwgr teardown and the group drains to zero
 * (dir W->I "WirDwgr").
 */
Task
wirelessDrain(Thread &t)
{
    const Addr P = hl(0), Q = hl(1), R = hl(2);
    const Addr F = flag(5);
    if (t.id() == 0) {
        AWAIT_FLAG(t, F, 3);
        // Census from a non-sharer: {1,2,3} adopt W and core 0 joins
        // through the held tone (fill installs W) -> count 4.
        co_await t.store(P, 1);
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 4
    } else {
        co_await t.load(P);
        co_await t.fence();
        BUMP_FLAG(t, F);            // three sharers -> flag 3
        AWAIT_FLAG(t, F, 4);
    }
    // All four members evict back-to-back (slightly staggered): the
    // first PutWs drain the count to maxWiredSharers, opening the
    // WirDwgr teardown, and the last member's PutW races the frame --
    // zero survivors collapse the group (dir W->I "WirDwgr").
    co_await t.compute(5 * t.id());
    co_await t.load(Q);
    co_await t.load(R);
    co_await t.fence();
    co_return;
}

/** Tiny-LLC wireless: evicting a W line recalls it with WirInv. */
Task
wirelessRecall(Thread &t)
{
    const Addr L = hl(0);
    const Addr F = flag(6);
    switch (t.id()) {
      case 0:
        co_await t.load(L);
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 1
        AWAIT_FLAG(t, F, 3);
        co_await t.store(L, 1);     // census -> W group {0,1,2}
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 4
        break;
      case 1:
        AWAIT_FLAG(t, F, 1);
        co_await t.load(L);
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 2
        break;
      case 2:
        AWAIT_FLAG(t, F, 2);
        co_await t.load(L);
        co_await t.fence();
        BUMP_FLAG(t, F);            // -> 3
        break;
      case 3:
        AWAIT_FLAG(t, F, 4);
        // Fill the home-0 LLC set with fresh lines: the W line is
        // evicted -> RecallW -> WirInv (sharers W->I "WirInv",
        // dir W->I "recall" on the frame's own delivery).
        for (unsigned i = 1; i <= 8; ++i)
            co_await t.load(hl(i));
        co_await t.fence();
        break;
    }
    co_return;
}

// ---------------------------------------------------------------------
// Exhaustive small-depth interleavings and random walks
// ---------------------------------------------------------------------

/** Short op scripts over two home-0 lines; id selects the script. */
Task
script(Thread &t, unsigned which, unsigned delay)
{
    const Addr X = hl(0), Y = hl(1);
    co_await t.compute(delay);
    switch (which) {
      case 0:
        co_await t.load(X);
        break;
      case 1:
        co_await t.store(X, 1 + t.id());
        break;
      case 2:
        co_await t.fetchAdd(X, 1);
        break;
      case 3:
        co_await t.load(X);
        co_await t.store(X, 10 + t.id());
        break;
      case 4:
        co_await t.store(Y, t.id());
        co_await t.load(X);
        break;
      case 5:
        co_await t.load(X);
        co_await t.load(Y);
        co_await t.store(X, 20 + t.id());
        break;
      default:
        break;
    }
    co_await t.fence();
    co_return;
}

/** Seeded random walk over a small line pool. */
Task
randomWalk(Thread &t, std::uint64_t seed, unsigned steps)
{
    std::mt19937_64 rng(seed * 4 + t.id() + 1);
    const Addr pool[6] = {hl(0), hl(1), hl(2), flag(7), flag(8), hl(3)};
    for (unsigned i = 0; i < steps; ++i) {
        Addr a = pool[rng() % 6];
        switch (rng() % 10) {
          case 0:
          case 1:
          case 2:
          case 3:
            co_await t.load(a);
            break;
          case 4:
          case 5:
          case 6:
            co_await t.store(a, rng());
            break;
          case 7:
            co_await t.fetchAdd(a, 1);
            break;
          default:
            co_await t.compute(rng() % 40);
            break;
        }
    }
    co_await t.fence();
    co_return;
}

/**
 * Storm: a longer random walk over twelve home-0 lines plus a few
 * lines homed elsewhere, so tiny caches keep recalling, evicting and
 * re-fetching lines while wireless groups form and dissolve. It is
 * what reaches the rarer in-transaction rows (late replies meeting a
 * Fetch, recalls of W lines, fills landing behind a pinned set).
 */
Task
storm(Thread &t, std::uint64_t seed, unsigned nodes)
{
    std::mt19937_64 rng(seed * 64 + t.id() + 1);
    for (unsigned i = 0; i < 120; ++i) {
        Addr a = rng() % 4 == 0
            ? 0x300000 + static_cast<Addr>(rng() % 8) * 2 * mem::kLineBytes
            : 0x100000 +
                  static_cast<Addr>(rng() % 12) * nodes * mem::kLineBytes;
        switch (rng() % 10) {
          case 0:
          case 1:
          case 2:
          case 3:
            co_await t.load(a);
            break;
          case 4:
          case 5:
            co_await t.store(a, rng());
            break;
          case 6:
            co_await t.fetchAdd(a, 1);
            break;
          default:
            co_await t.compute(rng() % 60);
            break;
        }
    }
    co_await t.fence();
    co_return;
}

/** A storm machine: tiny L1 and LLC, aggressive wireless knobs. */
SystemConfig
stormCfg(unsigned nodes, std::uint64_t seed)
{
    SystemConfig cfg = SystemConfig::widir(nodes);
    cfg.seed = seed;
    cfg.protocol.maxWiredSharers = 1 + seed % 2;
    cfg.protocol.updateCountThreshold = 2 + seed % 3;
    tinyL1(cfg);
    tinyLlc(cfg);
    return cfg;
}

/**
 * A sharer's upgrade GetX that crossed the S->W census (Table I, S->W
 * case 2) reaches the home only after the census ended and a W join
 * opened. It needs a long mesh path: sharer 63 sits in the far corner
 * of an 8x8 machine while node 2 starts the census and node 3 joins,
 * @p upgrade and @p join cycles after the sharers are in place.
 */
Task
staleUpgrade(Thread &t, unsigned upgrade, unsigned join)
{
    const Addr L = 0x100000, F = 0x200040;
    if (t.id() == 1 || t.id() == 63) {
        if (t.id() == 1)
            co_await t.compute(200);
        co_await t.load(L);           // sharers {1, 63}
        co_await t.fence();
        BUMP_FLAG(t, F);
    }
    if (t.id() == 2 || t.id() == 3 || t.id() == 63) {
        for (;;) {
            if ((co_await t.load(F)) >= 2)
                break;
            co_await t.compute(5);
        }
        if (t.id() == 2)
            co_await t.load(L);       // census
        if (t.id() == 63) {
            co_await t.idle(upgrade);
            co_await t.store(L, 7);   // sharer upgrade
        }
        if (t.id() == 3) {
            co_await t.idle(join);
            co_await t.load(L);       // join
        }
        co_await t.fence();
    }
    co_return;
}

/** Sweep staleUpgrade's two delays until the join has bounced it. */
void
staleUpgradeMeetsJoin(Explorer &ex)
{
    const std::size_t row = [] {
        auto rules = coherence::dirTxnRules();
        for (std::size_t i = 0; i < rules.size(); ++i)
            if (rules[i].txn == coherence::DirTxnType::WJoin &&
                rules[i].event == coherence::DirEvent::MsgGetX &&
                rules[i].roles == coherence::kBySharer)
                return i;
        return rules.size();
    }();
    ASSERT_LT(row, ex.txnRuleHits.size());
    SystemConfig cfg = SystemConfig::widir(64);
    cfg.protocol.maxWiredSharers = 1;
    for (unsigned d1 = 0; d1 < 40 && !ex.txnRuleHits[row]; ++d1)
        for (unsigned d2 = 2; d2 < 62 && !ex.txnRuleHits[row]; ++d2)
            ex.run(cfg, [d1, d2](Thread &t) -> Task {
                return staleUpgrade(t, d1, d2);
            });
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

TEST(ProtocolTable, EveryCellDispatches)
{
    // Each L1 in-transaction row owns exactly its cell (overlapping
    // rows panic when the table is built), and every wired phase
    // answers a wired Inv, which a broadcast recall sends to every node
    // whatever it has in flight. A write in the Wireless phase holds a
    // W copy, and the home sends no Inv for a line in W.
    auto l1_rules = coherence::l1TxnRules();
    for (std::size_t i = 0; i < l1_rules.size(); ++i)
        EXPECT_EQ(coherence::l1TxnRuleFor(l1_rules[i].phase,
                                          l1_rules[i].event),
                  static_cast<int>(i));
    for (std::size_t p = 0; p < coherence::kNumL1Phases; ++p) {
        auto phase = static_cast<coherence::L1Phase>(p);
        int row = coherence::l1TxnRuleFor(phase, coherence::L1Event::MsgInv);
        if (phase == coherence::L1Phase::Wireless)
            EXPECT_LT(row, 0);
        else
            EXPECT_GE(row, 0) << coherence::l1PhaseName(phase);
    }

    // Each in-transaction row owns exactly the cells its roles name,
    // and a request from anyone gets an answer during any transaction
    // (overlapping rows panic when the table is built).
    using coherence::DirEvent;
    using coherence::DirTxnType;
    using coherence::SenderRole;
    auto rules = coherence::dirTxnRules();
    std::size_t owned = 0, named = 0;
    for (const coherence::DirTxnRule &r : rules)
        named += static_cast<std::size_t>(std::popcount(r.roles));
    for (std::size_t t = 0; t < coherence::kNumDirTxnTypes; ++t)
        for (std::size_t e = 0; e < coherence::kNumDirEvents; ++e)
            for (std::size_t r = 0; r < coherence::kNumSenderRoles; ++r) {
                auto txn = static_cast<DirTxnType>(t);
                auto ev = static_cast<DirEvent>(e);
                int row = coherence::dirTxnRuleFor(
                    txn, ev, static_cast<SenderRole>(r));
                if (ev == DirEvent::MsgGetS || ev == DirEvent::MsgGetX) {
                    EXPECT_GE(row, 0) << coherence::dirTxnTypeName(txn)
                                      << " " << coherence::dirEventName(ev);
                }
                if (row < 0)
                    continue;
                ++owned;
                const coherence::DirTxnRule &rule =
                    rules[static_cast<std::size_t>(row)];
                EXPECT_EQ(rule.txn, txn);
                EXPECT_EQ(rule.event, ev);
                EXPECT_TRUE((rule.roles >> r) & 1u);
            }
    EXPECT_EQ(owned, named);
}

/**
 * Whether request @p ev with guard set @p g can meet a stable line in
 * @p s. A line that is not resident reads I, with only the message's
 * own IsSharer. The owner never asks: it requests again only after
 * its PutE/PutM, which the mesh delivers first. Pointers and the
 * broadcast bit exist only in S, and there:
 *  - a pointer sharer holds its copy (a PutS drops the pointer before
 *    any later request arrives), so it sends no GetS;
 *  - a crowded entry is precise: MaxWiredSharers never exceeds the
 *    pointers (Manycore asserts it), so WiDir starts a census before
 *    they can overflow, and Baseline never reads Crowded;
 *  - a precise S entry has a pointer (the last PutS empties it to I),
 *    so a sender that is no pointer always has another target.
 */
bool
requestCanMeet(coherence::DirState s, coherence::DirEvent ev,
               coherence::DirGuards g)
{
    using coherence::DirGuard;
    auto has = [g](DirGuard d) { return (g & coherence::guardBit(d)) != 0; };
    if (!has(DirGuard::InLlc))
        return s == coherence::DirState::I &&
               (g & ~coherence::guardBit(DirGuard::IsSharer)) == 0;
    if (has(DirGuard::Owner))
        return false;
    if (s != coherence::DirState::S)
        return true;
    if (ev == coherence::DirEvent::MsgGetS && has(DirGuard::Sharer))
        return false;
    return !(has(DirGuard::Crowded) && has(DirGuard::Bcast)) &&
           (has(DirGuard::Sharer) || !has(DirGuard::Alone));
}

TEST(ProtocolTable, EveryStableCellDispatches)
{
    // Each Table II row owns exactly the guard sets its guard column
    // matches (overlapping rows panic when the table is built).
    using coherence::DirEvent;
    using coherence::DirState;
    auto rules = coherence::dirRules();
    constexpr std::size_t kGuardSets = 1u << coherence::kNumDirGuards;
    std::size_t owned = 0, named = 0;
    for (const coherence::DirRule &r : rules)
        for (std::size_t g = 0; g < kGuardSets; ++g)
            named += r.guard.matches(static_cast<coherence::DirGuards>(g));
    for (std::size_t st = 0; st < coherence::kNumDirStates; ++st)
        for (std::size_t e = 0; e < coherence::kNumDirEvents; ++e)
            for (std::size_t g = 0; g < kGuardSets; ++g) {
                const auto s = static_cast<DirState>(st);
                const auto ev = static_cast<DirEvent>(e);
                const auto guards = static_cast<coherence::DirGuards>(g);
                const int row = coherence::dirRuleFor(s, ev, guards);
                // A request always gets an answer.
                if ((ev == DirEvent::MsgGetS || ev == DirEvent::MsgGetX) &&
                    requestCanMeet(s, ev, guards)) {
                    EXPECT_GE(row, 0)
                        << dirStateName(s) << " "
                        << coherence::dirEventName(ev) << " {"
                        << coherence::dirGuardText({0xff, guards}) << "}";
                }
                if (row < 0)
                    continue;
                ++owned;
                const coherence::DirRule &rule =
                    rules[static_cast<std::size_t>(row)];
                EXPECT_EQ(rule.from, s);
                EXPECT_EQ(rule.event, ev);
                EXPECT_TRUE(rule.guard.matches(guards));
            }
    EXPECT_EQ(owned, named);
}

TEST(ProtocolTable, NotedRowsDefineLegality)
{
    // The derived legality relation is exactly the noted rows: Table I
    // for the L1; Table II and the in-transaction rows (from the state
    // the transaction holds the line in) for the directory.
    std::set<std::pair<std::uint8_t, std::uint8_t>> l1_edges, dir_edges;
    for (const coherence::L1Rule &r : l1Rules()) {
        if (r.note)
            l1_edges.insert({static_cast<std::uint8_t>(r.from),
                             static_cast<std::uint8_t>(r.to)});
    }
    for (const coherence::DirRule &r : dirRules()) {
        if (r.note)
            dir_edges.insert({static_cast<std::uint8_t>(r.from),
                              static_cast<std::uint8_t>(r.to)});
    }
    for (const coherence::DirTxnRule &r : coherence::dirTxnRules()) {
        EXPECT_EQ(r.note != nullptr, r.ends != 0)
            << coherence::dirTxnTypeName(r.txn) << " "
            << coherence::dirEventName(r.event);
        if (!r.note)
            continue;
        for (std::uint8_t to = 0; to < coherence::kNumDirStates; ++to)
            if ((r.ends >> to) & 1u)
                dir_edges.insert(
                    {static_cast<std::uint8_t>(coherence::dirTxnState(r.txn)),
                     to});
    }
    for (std::size_t f = 0; f < coherence::kNumL1States; ++f)
        for (std::size_t t = 0; t < coherence::kNumL1States; ++t)
            EXPECT_EQ(coherence::l1EdgeLegal(
                          static_cast<coherence::L1State>(f),
                          static_cast<coherence::L1State>(t)),
                      l1_edges.count({static_cast<std::uint8_t>(f),
                                      static_cast<std::uint8_t>(t)}) > 0)
                << "L1 " << f << "->" << t;
    // The directory relation itself, pinned: rows may move between
    // the tables, but the edges the checker accepts stay these.
    // Rows: I, S, EM, W; columns likewise.
    constexpr bool kDirLegal[4][4] = {
        {false, false, true, false},
        {true, false, true, true},
        {true, true, true, false},
        {true, true, false, true},
    };
    for (std::size_t f = 0; f < coherence::kNumDirStates; ++f)
        for (std::size_t t = 0; t < coherence::kNumDirStates; ++t) {
            const bool legal = coherence::dirEdgeLegal(
                static_cast<coherence::DirState>(f),
                static_cast<coherence::DirState>(t));
            EXPECT_EQ(legal,
                      dir_edges.count({static_cast<std::uint8_t>(f),
                                       static_cast<std::uint8_t>(t)}) > 0)
                << "dir " << f << "->" << t;
            EXPECT_EQ(legal, kDirLegal[f][t]) << "dir " << f << "->" << t;
        }
}

TEST(StateExplorer, EveryTableEdgeReachable)
{
    Explorer ex;

    // Directed scenarios.
    ex.run(smallWidir(), mesiBasics);
    {
        SystemConfig cfg = smallWidir();
        tinyL1(cfg);
        ex.run(cfg, evictions);
    }
    {
        SystemConfig cfg = smallWidir();
        tinyLlc(cfg);
        ex.run(cfg, recalls);
    }
    {
        SystemConfig cfg = SystemConfig::baseline(4);
        cfg.protocol.dirPointers = 2;
        cfg.protocol.maxWiredSharers = 2;
        ex.run(cfg, pointerOverflow);
    }
    ex.run(wirelessCfg(), wireless);
    {
        SystemConfig cfg = wirelessCfg();
        tinyL1(cfg);
        ex.run(cfg, wirelessEvict);
        ex.run(cfg, wirelessDrain);
    }
    {
        SystemConfig cfg = wirelessCfg();
        tinyLlc(cfg);
        ex.run(cfg, wirelessRecall);
    }

    // Exhaustive small-depth interleavings: every triple of short
    // scripts on three cores, under the aggressive wireless config
    // (so censuses and joins happen even at depth 2).
    for (unsigned a = 0; a < 6; ++a)
        for (unsigned b = 0; b < 6; ++b)
            for (unsigned c = 0; c < 6; ++c)
                ex.run(wirelessCfg(), [a, b, c](Thread &t) -> Task {
                    switch (t.id()) {
                      case 0:
                        return script(t, a, 0);
                      case 1:
                        return script(t, b, 11);
                      case 2:
                        return script(t, c, 29);
                      default:
                        return script(t, 6, 0);
                    }
                });

    // Random walks across config variants.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto walk = [seed](Thread &t) -> Task {
            return randomWalk(t, seed, 40);
        };
        ex.run(wirelessCfg(), walk);
        SystemConfig cfg = wirelessCfg();
        tinyL1(cfg);
        ex.run(cfg, walk);
    }

    // Storms and a directed sweep for the rarest in-transaction rows.
    // Eight tiles pin whole L1 sets often enough that fills land late
    // (L1Phase::Landing) while the home recalls or forwards the line.
    for (std::uint64_t seed = 1; seed <= 500; ++seed)
        ex.run(stormCfg(4, seed), [seed](Thread &t) -> Task {
            return storm(t, seed, 4);
        });
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        ex.run(stormCfg(8, seed), [seed](Thread &t) -> Task {
            return storm(t, seed, 8);
        });
    // A census that meets a fill landing behind a pinned set (Landing,
    // FrameBrWirUpgr) needs a pin that outlasts the start of a census;
    // this 16-tile storm has one.
    ex.run(stormCfg(16, 2), [](Thread &t) -> Task { return storm(t, 2, 16); });
    staleUpgradeMeetsJoin(ex);

    ex.expectObservedSubsetOfTable();
    ex.expectEveryTableEdgeObserved();
    ex.expectRulesTaken();
}

/** @p cfg on a bursty channel: Bad-state runs fault frame after frame. */
SystemConfig
burstFaults(SystemConfig cfg, std::uint64_t seed)
{
    cfg.fault.burstBer = 1.0;
    cfg.fault.burstEnterProb = 0.25;
    cfg.fault.burstExitProb = 0.5;
    cfg.fault.seed = seed;
    return cfg;
}

/** What a counter storm added to each counter, and what it read back. */
struct CounterTally
{
    std::array<std::uint64_t, 4> added{};
    std::array<std::uint64_t, 4> final{};
};

/**
 * Counter storm: 150 random steps over four home-0 counters that only
 * fetchAdd(+1) writes, plus a few other lines, on tiny caches. After a
 * barrier node 0 reads every counter back; an RMW lost or applied
 * twice shows as a counter that differs from its number of adds.
 */
Task
counterStorm(Thread &t, std::uint64_t seed, unsigned nodes,
             CounterTally &tally)
{
    auto counter = [nodes](std::uint64_t i) {
        return 0x100000 + static_cast<Addr>(i) * nodes * mem::kLineBytes;
    };
    std::mt19937_64 rng(seed * 64 + t.id() + 1);
    for (unsigned i = 0; i < 150; ++i) {
        const unsigned c = rng() % 4;
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2:
            co_await t.fetchAdd(counter(c), 1);
            ++tally.added[c];
            break;
          case 3:
          case 4:
            co_await t.load(counter(c));
            break;
          case 5:
            co_await t.load(counter(4 + rng() % 8)); // evicts counters
            break;
          case 6:
            co_await t.store(
                0x300000 + static_cast<Addr>(rng() % 8) * 2 * mem::kLineBytes,
                rng());
            break;
          default:
            co_await t.compute(rng() % 60);
            break;
        }
    }
    co_await t.fence();
    BUMP_FLAG(t, flag(0));
    if (t.id() == 0) {
        AWAIT_FLAG(t, flag(0), nodes);
        for (unsigned c = 0; c < 4; ++c)
            tally.final[c] = co_await t.load(counter(c));
    }
    co_return;
}

TEST(StateExplorer, FaultStormsStayCoherentAndAtomic)
{
    // A faulted frame retries until it gets through, so faults only
    // delay frames: the storms must end coherent and legal, and every
    // RMW must apply exactly once.
    Explorer ex;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        ex.run(burstFaults(wirelessCfg(), seed), [seed](Thread &t) -> Task {
            return randomWalk(t, seed + 100, 60);
        });
    for (std::uint64_t seed = 1; seed <= 60; ++seed)
        ex.run(burstFaults(stormCfg(8, seed), seed),
               [seed](Thread &t) -> Task { return storm(t, seed, 8); });
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        CounterTally tally;
        ex.run(burstFaults(stormCfg(8, seed), seed),
               [seed, &tally](Thread &t) -> Task {
                   return counterStorm(t, seed, 8, tally);
               });
        EXPECT_EQ(tally.final, tally.added) << "counter storm seed " << seed;
    }
    ex.expectObservedSubsetOfTable();
    ex.expectEveryTableEdgeObserved();
}

TEST(StateExplorer, CleanCounterStormsStayAtomic)
{
    // Counter storms on a clean channel over a plain seed range (it
    // holds seed 24 of StaleRetryStormP): every storm must finish
    // coherent and legal, with each counter equal to its adds.
    Explorer ex;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        CounterTally tally;
        ex.run(stormCfg(8, seed), [seed, &tally](Thread &t) -> Task {
            return counterStorm(t, seed, 8, tally);
        });
        EXPECT_EQ(tally.final, tally.added) << "counter storm seed " << seed;
    }
    ex.expectObservedSubsetOfTable();
}

/** An 8-tile counter storm that resent a newer transaction's request:
 *  (seed, under burstFaults). */
using StaleRetryStorm = std::pair<std::uint64_t, bool>;

class StaleRetryStormP : public ::testing::TestWithParam<StaleRetryStorm>
{
};

/**
 * A Nack's backoff timer outlived its transaction (a census satisfied
 * the upgrade) and fired after a new transaction for the line had
 * opened. It sent the new request a second time, a W join admitted the
 * duplicate, and its second WirUpgr panicked the node ("no step for
 * MsgWirUpgr during Wireless"). The timer now resends only for the
 * transaction it was set for, and each storm finishes with every
 * counter equal to its number of adds.
 */
TEST_P(StaleRetryStormP, CountersMatchTheirAdds)
{
    const auto [seed, faulted] = GetParam();
    SystemConfig cfg = stormCfg(8, seed);
    if (faulted)
        cfg = burstFaults(cfg, seed);
    Explorer ex;
    CounterTally tally;
    ex.run(cfg, [seed, &tally](Thread &t) -> Task {
        return counterStorm(t, seed, 8, tally);
    });
    EXPECT_EQ(tally.final, tally.added);
}

INSTANTIATE_TEST_SUITE_P(
    StateExplorer, StaleRetryStormP,
    ::testing::Values(StaleRetryStorm{24, false},
                      StaleRetryStorm{219, false},
                      StaleRetryStorm{84, true}),
    [](const ::testing::TestParamInfo<StaleRetryStorm> &info) {
        return "Seed" + std::to_string(info.param.first) +
               (info.param.second ? "BurstFaults" : "Clean");
    });

/** A storm that deadlocked through the census tone: (tiles, seed,
 *  MaxWiredSharers). */
using ToneStorm = std::tuple<unsigned, std::uint64_t, std::uint32_t>;

class LandingToneStormP : public ::testing::TestWithParam<ToneStorm>
{
};

/**
 * A node held the census tone for a fill landing behind a set that
 * two of its own wireless writes pinned; ToWireless censuses jammed
 * those writes, and every census waited for the one wired-OR tone, so
 * nothing moved until the watchdog. The landing fill now squashes an
 * uncommitted write in its set, and each storm finishes.
 */
TEST_P(LandingToneStormP, Finishes)
{
    const auto [nodes, seed, max_wired] = GetParam();
    SystemConfig cfg = stormCfg(nodes, seed);
    cfg.protocol.maxWiredSharers = max_wired;
    Explorer ex;
    ex.run(cfg, [nodes, seed](Thread &t) -> Task {
        return storm(t, seed, nodes);
    });
}

INSTANTIATE_TEST_SUITE_P(
    StateExplorer, LandingToneStormP,
    ::testing::Values(ToneStorm{8, 37, 1}, ToneStorm{8, 45, 1},
                      ToneStorm{8, 49, 1}, ToneStorm{8, 53, 1},
                      ToneStorm{8, 65, 1}, ToneStorm{8, 89, 1},
                      ToneStorm{8, 97, 1}, ToneStorm{8, 109, 1},
                      ToneStorm{8, 109, 2}, ToneStorm{4, 1632, 1}),
    [](const ::testing::TestParamInfo<ToneStorm> &info) {
        return "Tiles" + std::to_string(std::get<0>(info.param)) +
               "Seed" + std::to_string(std::get<1>(info.param)) +
               "MaxWired" + std::to_string(std::get<2>(info.param));
    });

/**
 * An 8-tile storm whose fill is postponed behind a fully pinned set
 * while the home recalls the line. Before the landing phase existed
 * the L1 acked the Inv as if it held nothing and installed the line
 * afterwards, and the home later panicked on its PutM ("no step for
 * MsgPutM from Other node ... during Fetch").
 */
void
expectLandingFillAnswersForItsLine(std::uint64_t seed)
{
    Explorer ex;
    ex.run(stormCfg(8, seed), [seed](Thread &t) -> Task {
        return storm(t, seed, 8);
    });
    EXPECT_GT(ex.l1Hits(coherence::L1Phase::Landing,
                        coherence::L1Event::MsgInv),
              0u);
}

TEST(StateExplorer, LandingFillAnswersForItsLineSeed66)
{
    expectLandingFillAnswersForItsLine(66);
}

TEST(StateExplorer, LandingFillAnswersForItsLineSeed118)
{
    expectLandingFillAnswersForItsLine(118);
}

} // namespace
