/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates: event
 * queue throughput under the schedule distributions real experiments
 * produce, message-pool round trips, cache array lookups, mesh message
 * routing, and wireless channel arbitration. These measure host
 * performance of the infrastructure (not simulated metrics) and guard
 * against regressions that would make the experiment suite slow.
 *
 * The BM_Legacy* benchmarks run the same workloads on a local replica
 * of the pre-calendar-wheel kernel (std::priority_queue of
 * std::function closures), so every run measures the hybrid kernel's
 * speedup against its predecessor on the same machine --
 * tools/perf_check.sh asserts that ratio stays above its threshold.
 *
 * Extra modes on top of the usual --benchmark_* flags:
 *   --selftest       run every workload once at small scale, verify
 *                    checksums, ordering against the legacy kernel,
 *                    and hot-path allocation-freedom; exit nonzero on
 *                    any mismatch (registered as a CTest smoke test)
 *   --json=PATH      after the benchmarks run, write name +
 *                    items_per_second per benchmark as a
 *                    widir-bench-v1 JSON document (see docs/PERF.md)
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/l1_controller.h"
#include "noc/mesh.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/simulator.h"
#include "wireless/data_channel.h"

namespace {

using namespace widir;

// ---------------------------------------------------------------------
// The pre-refit kernel, kept verbatim as the measurement reference:
// one std::priority_queue ordered by (tick, seq), std::function
// closures (heap-allocated beyond ~16 captured bytes).

class LegacyEventQueue
{
  public:
    void
    scheduleAt(sim::Tick when, std::function<void()> fn)
    {
        heap_.push(Entry{when, nextSeq_++, std::move(fn)});
    }

    void
    schedule(sim::Tick delay, std::function<void()> fn)
    {
        scheduleAt(now_ + delay, std::move(fn));
    }

    bool
    run(sim::Tick limit = sim::kTickNever)
    {
        while (!heap_.empty()) {
            if (heap_.top().when > limit) {
                now_ = std::max(now_, limit);
                return false;
            }
            auto fn = std::move(const_cast<Entry &>(heap_.top()).fn);
            now_ = heap_.top().when;
            heap_.pop();
            ++executed_;
            fn();
        }
        return true;
    }

    sim::Tick now() const { return now_; }
    std::uint64_t executedEvents() const { return executed_; }

  private:
    struct Entry
    {
        sim::Tick when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        heap_;
    sim::Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

// ---------------------------------------------------------------------
// Event-queue workloads, templated over the queue so the hybrid kernel
// and the legacy replica run byte-for-byte the same schedule stream.
// Each returns a checksum the selftest compares across kernels.

/**
 * The historical throughput workload: a burst of pre-scheduled events.
 * Takes the queue by reference so benchmarks can reuse one queue
 * across iterations -- a simulation runs billions of events through a
 * single queue, so steady-state (warm slot capacities, no
 * construction) is the representative regime.
 */
template <typename Queue>
std::uint64_t
burstInto(Queue &q, int n_events)
{
    std::uint64_t sum = 0;
    for (int i = 0; i < n_events; ++i) {
        q.schedule(static_cast<sim::Tick>(i * 3 % 997),
                   [&sum] { ++sum; });
    }
    q.run();
    return sum;
}

template <typename Queue>
std::uint64_t
burstWorkload(int n_events)
{
    Queue q;
    return burstInto(q, n_events);
}

/**
 * Steady-state protocol shape: 64 agents each self-reschedule through
 * the short latencies that dominate real runs (L1 hits, directory
 * lookups, mesh hops, LLC data, wireless frames, NACK retries).
 */
inline constexpr sim::Tick kShortDelays[8] = {1, 2, 2, 3, 5, 10, 16, 80};

template <typename Queue>
struct Agent
{
    Queue *q;
    std::uint64_t *fired;
    std::uint64_t remaining;
    std::uint32_t idx;
    bool far_mix; ///< every 16th hop goes past the wheel window

    void
    hop()
    {
        ++*fired;
        if (remaining == 0)
            return;
        --remaining;
        sim::Tick d = kShortDelays[idx++ & 7];
        if (far_mix && (idx & 15) == 0)
            d = 1500; // DRAM-bank queueing / deep backoff territory
        Agent *self = this;
        q->schedule(d, [self] { self->hop(); });
    }
};

template <typename Queue>
std::uint64_t
steadyStateInto(Queue &q, int n_events, bool far_mix)
{
    constexpr int kAgents = 64;
    std::uint64_t fired = 0;
    std::vector<Agent<Queue>> agents(
        static_cast<std::size_t>(kAgents));
    std::uint64_t per_agent =
        static_cast<std::uint64_t>(n_events) / kAgents;
    for (int a = 0; a < kAgents; ++a) {
        agents[static_cast<std::size_t>(a)] = Agent<Queue>{
            &q, &fired, per_agent, static_cast<std::uint32_t>(a),
            far_mix};
        Agent<Queue> *self = &agents[static_cast<std::size_t>(a)];
        q.schedule(static_cast<sim::Tick>(a % 7 + 1),
                   [self] { self->hop(); });
    }
    q.run();
    // fired alone checks across kernels; the time delta does too, but
    // only relative to the start of this call (queues are reused).
    return fired;
}

template <typename Queue>
std::uint64_t
steadyStateWorkload(int n_events, bool far_mix)
{
    Queue q;
    std::uint64_t fired = steadyStateInto(q, n_events, far_mix);
    return fired + q.now(); // fresh queue: end time checks too
}

/**
 * Broadcast shape: each round schedules 64 same-tick deliveries (a
 * wireless frame arriving at every node at once), a few cycles apart.
 */
template <typename Queue>
std::uint64_t
fanoutInto(Queue &q, int n_events)
{
    constexpr int kNodes = 64;
    std::uint64_t sum = 0;
    int rounds = n_events / kNodes;
    for (int r = 0; r < rounds; ++r) {
        // Delay pattern stays inside the wheel window; distinct rounds
        // may alias onto the same tick, which only adds more same-tick
        // traffic -- the shape under test.
        sim::Tick delay = static_cast<sim::Tick>(r % 200) * 5 + 5;
        for (int n = 0; n < kNodes; ++n) {
            std::uint64_t tag =
                static_cast<std::uint64_t>(r) * kNodes +
                static_cast<std::uint64_t>(n);
            q.schedule(delay, [&sum, tag] { sum += tag; });
        }
    }
    q.run();
    return sum;
}

template <typename Queue>
std::uint64_t
fanoutWorkload(int n_events)
{
    Queue q;
    return fanoutInto(q, n_events);
}

/**
 * The fabric's message path: acquire a pooled message, schedule a
 * delivery capturing only the 4-byte slot index, release on delivery.
 */
std::uint64_t
messagePoolWorkload(int n_events)
{
    sim::Simulator s(1);
    coherence::MsgPool pool;
    std::uint64_t sum = 0;
    for (int i = 0; i < n_events; ++i) {
        coherence::Msg m{};
        m.src = static_cast<sim::NodeId>(i % 64);
        m.dst = static_cast<sim::NodeId>((i * 7) % 64);
        m.line = static_cast<sim::Addr>(i) * 64;
        std::uint32_t slot = pool.acquire(m);
        s.scheduleInline(static_cast<sim::Tick>(i % 13 + 1),
                         [&pool, &sum, slot] {
                             sum += pool.at(slot).line;
                             pool.release(slot);
                         });
    }
    s.run();
    return sum + pool.live();
}

/** Order-recording workload: proves cross-kernel execution order. */
template <typename Queue>
std::vector<std::uint64_t>
orderProbe()
{
    Queue q;
    std::vector<std::uint64_t> order;
    std::uint64_t tag = 0;
    // Mix near, far, and same-tick events, including reschedules from
    // inside events, to exercise every ordering boundary.
    for (sim::Tick t : {sim::Tick{3}, sim::Tick{3}, sim::Tick{2000},
                        sim::Tick{1023}, sim::Tick{1024},
                        sim::Tick{3}}) {
        std::uint64_t id = tag++;
        q.scheduleAt(t, [&order, id] { order.push_back(id); });
    }
    std::uint64_t id = tag++;
    q.schedule(7, [&q, &order, id] {
        order.push_back(id);
        for (int i = 0; i < 4; ++i) {
            std::uint64_t nested = 100 + static_cast<std::uint64_t>(i);
            q.schedule(static_cast<sim::Tick>(i % 2),
                       [&order, nested] { order.push_back(nested); });
        }
    });
    q.run();
    return order;
}

// ---------------------------------------------------------------------
// Benchmarks.

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    sim::EventQueue q;
    for (auto _ : state)
        benchmark::DoNotOptimize(burstInto(q, 1000));
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_LegacyEventQueueScheduleRun(benchmark::State &state)
{
    LegacyEventQueue q;
    for (auto _ : state)
        benchmark::DoNotOptimize(burstInto(q, 1000));
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LegacyEventQueueScheduleRun);

void
BM_EventQueueSteadyState(benchmark::State &state)
{
    sim::EventQueue q;
    for (auto _ : state)
        benchmark::DoNotOptimize(steadyStateInto(q, 64000, false));
    state.SetItemsProcessed(state.iterations() * 64000);
}
BENCHMARK(BM_EventQueueSteadyState);

void
BM_LegacyEventQueueSteadyState(benchmark::State &state)
{
    LegacyEventQueue q;
    for (auto _ : state)
        benchmark::DoNotOptimize(steadyStateInto(q, 64000, false));
    state.SetItemsProcessed(state.iterations() * 64000);
}
BENCHMARK(BM_LegacyEventQueueSteadyState);

void
BM_EventQueueMixedHorizon(benchmark::State &state)
{
    sim::EventQueue q;
    for (auto _ : state)
        benchmark::DoNotOptimize(steadyStateInto(q, 64000, true));
    state.SetItemsProcessed(state.iterations() * 64000);
}
BENCHMARK(BM_EventQueueMixedHorizon);

void
BM_LegacyEventQueueMixedHorizon(benchmark::State &state)
{
    LegacyEventQueue q;
    for (auto _ : state)
        benchmark::DoNotOptimize(steadyStateInto(q, 64000, true));
    state.SetItemsProcessed(state.iterations() * 64000);
}
BENCHMARK(BM_LegacyEventQueueMixedHorizon);

void
BM_EventQueueSameTickFanout(benchmark::State &state)
{
    sim::EventQueue q;
    for (auto _ : state)
        benchmark::DoNotOptimize(fanoutInto(q, 64000));
    state.SetItemsProcessed(state.iterations() * 64000);
}
BENCHMARK(BM_EventQueueSameTickFanout);

void
BM_LegacyEventQueueSameTickFanout(benchmark::State &state)
{
    LegacyEventQueue q;
    for (auto _ : state)
        benchmark::DoNotOptimize(fanoutInto(q, 64000));
    state.SetItemsProcessed(state.iterations() * 64000);
}
BENCHMARK(BM_LegacyEventQueueSameTickFanout);

void
BM_MessagePoolRoundTrip(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(messagePoolWorkload(10000));
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_MessagePoolRoundTrip);

void
BM_CacheArrayLookup(benchmark::State &state)
{
    coherence::L1Array cache(64 * 1024, 2);
    mem::LineData d;
    for (std::uint64_t i = 0; i < 512; ++i) {
        sim::Addr a = i * 64;
        cache.fill(cache.pickVictim(a), a, d);
    }
    std::uint64_t i = 0;
    for (auto _ : state) {
        auto *e = cache.lookup((i++ % 512) * 64);
        benchmark::DoNotOptimize(e);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayLookup);

void
BM_MeshSend(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        noc::MeshConfig cfg;
        cfg.numNodes = 64;
        noc::Mesh mesh(s, cfg);
        int delivered = 0;
        for (sim::NodeId n = 0; n < 64; ++n)
            mesh.send(n, 63 - n, 584, [&delivered] { ++delivered; });
        s.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MeshSend);

void
BM_WirelessArbitration(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        wireless::DataChannelConfig cfg;
        cfg.numNodes = 64;
        wireless::DataChannel ch(s, cfg);
        int committed = 0;
        for (sim::NodeId n = 0; n < 16; ++n) {
            wireless::Frame f;
            f.src = n;
            f.kind = wireless::FrameKind::WirUpd;
            f.lineAddr = 0x1000 + n * 64;
            f.wordAddr = f.lineAddr;
            ch.transmit(f, [&committed] { ++committed; });
        }
        s.run();
        benchmark::DoNotOptimize(committed);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_WirelessArbitration);

// ---------------------------------------------------------------------
// Selftest: the workloads above, once, at small scale, with the
// invariants the benchmarks rely on checked instead of timed.

#define SELFTEST_CHECK(cond, ...)                                      \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::fprintf(stderr, "selftest FAIL (%s:%d): ", __FILE__,  \
                         __LINE__);                                    \
            std::fprintf(stderr, __VA_ARGS__);                         \
            std::fprintf(stderr, "\n");                                \
            return 1;                                                  \
        }                                                              \
    } while (0)

int
runSelftest()
{
    SELFTEST_CHECK(burstWorkload<sim::EventQueue>(1000) == 1000,
                   "burst checksum");
    SELFTEST_CHECK(burstWorkload<sim::EventQueue>(1000) ==
                       burstWorkload<LegacyEventQueue>(1000),
                   "burst: hybrid != legacy");

    SELFTEST_CHECK(steadyStateWorkload<sim::EventQueue>(6400, false) ==
                       steadyStateWorkload<LegacyEventQueue>(6400,
                                                             false),
                   "steady-state: hybrid != legacy");
    SELFTEST_CHECK(steadyStateWorkload<sim::EventQueue>(6400, true) ==
                       steadyStateWorkload<LegacyEventQueue>(6400,
                                                             true),
                   "mixed-horizon: hybrid != legacy");
    SELFTEST_CHECK(fanoutWorkload<sim::EventQueue>(6400) ==
                       fanoutWorkload<LegacyEventQueue>(6400),
                   "fanout: hybrid != legacy");

    // Execution order (not just checksums) must match the reference
    // kernel event for event.
    SELFTEST_CHECK(orderProbe<sim::EventQueue>() ==
                       orderProbe<LegacyEventQueue>(),
                   "event order diverges from the legacy kernel");

    // The hot path must not allocate: every closure the steady-state,
    // fanout and message-pool workloads schedule fits the inline
    // buffer (the acceptance criterion in docs/PERF.md).
    std::uint64_t before = sim::InlineEvent::heapFallbacks();
    steadyStateWorkload<sim::EventQueue>(6400, true);
    fanoutWorkload<sim::EventQueue>(6400);
    std::uint64_t pool_sum = messagePoolWorkload(1000);
    SELFTEST_CHECK(sim::InlineEvent::heapFallbacks() == before,
                   "hot-path workload heap-allocated a closure");
    // messagePoolWorkload folds pool.live() into its checksum; a
    // leaked slot shifts the sum.
    SELFTEST_CHECK(pool_sum == messagePoolWorkload(1000),
                   "message pool workload not reproducible");

    std::printf("micro_simkernel selftest OK\n");
    return 0;
}

// ---------------------------------------------------------------------
// JSON export: capture per-benchmark items/sec while still printing
// the normal console table, then write the widir-bench-v1 document.

struct BenchResult
{
    std::string name;
    double itemsPerSecond;
    double realTimeNs;
    std::int64_t iterations;
};

class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<BenchResult> results;

  protected:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            BenchResult r;
            r.name = run.benchmark_name();
            auto it = run.counters.find("items_per_second");
            r.itemsPerSecond =
                it == run.counters.end() ? 0.0 : it->second.value;
            r.realTimeNs = run.iterations == 0
                ? 0.0
                : run.real_accumulated_time * 1e9 /
                      static_cast<double>(run.iterations);
            r.iterations = run.iterations;
            results.push_back(std::move(r));
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }
};

bool
writeBenchJson(const std::string &path,
               const std::vector<BenchResult> &results)
{
    std::ofstream f(path, std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    f << "{\n  \"schema\": \"widir-bench-v1\",\n"
      << "  \"name\": \"micro_simkernel\",\n  \"benchmarks\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        char line[256];
        std::snprintf(line, sizeof(line),
                      "%s\n    {\"name\": \"%s\", "
                      "\"items_per_second\": %.6g, "
                      "\"real_time_ns\": %.6g, "
                      "\"iterations\": %lld}",
                      i ? "," : "", r.name.c_str(), r.itemsPerSecond,
                      r.realTimeNs,
                      static_cast<long long>(r.iterations));
        f << line;
    }
    f << "\n  ]\n}\n";
    return static_cast<bool>(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bool selftest = false;
    // Strip our own flags before benchmark::Initialize sees them.
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--selftest"))
            selftest = true;
        else if (!std::strncmp(argv[i], "--json=", 7))
            json_path = argv[i] + 7;
        else
            argv[kept++] = argv[i];
    }
    argc = kept;

    if (selftest)
        return runSelftest();

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (!json_path.empty()) {
        if (!writeBenchJson(json_path, reporter.results))
            return 1;
        std::printf("[%zu benchmarks -> %s]\n",
                    reporter.results.size(), json_path.c_str());
    }
    return 0;
}
