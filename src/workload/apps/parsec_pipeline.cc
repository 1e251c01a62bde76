/**
 * @file
 * Kernels modeling PARSEC's pipeline applications `dedup` and
 * `ferret`. Both push work items through stage queues; consecutive
 * stages share each item between exactly two threads (producer and
 * consumer), so lines rarely accumulate enough sharers to go
 * wireless, and the paper finds WiDir gives them no speedup.
 */

#include "workload/kernels.h"

#include "workload/addr_map.h"
#include "workload/patterns.h"
#include "workload/sync.h"

namespace widir::workload::apps {

using namespace pattern;
namespace syn = ::widir::workload::sync;

namespace {

/**
 * Pipeline skeleton: thread i produces items into slot line i and
 * consumes from its predecessor ((i-1) mod n) via per-pair flags --
 * two-sharer producer/consumer traffic.
 *
 * @p compute_producer / @p compute_consumer model the per-item work
 * of the two stages (hashing for dedup, feature extraction for
 * ferret).
 */
Task
pipeline(Thread &t, std::uint64_t slot, std::uint64_t items,
         std::uint64_t compute_producer, std::uint64_t compute_consumer,
         std::uint64_t private_lines)
{
    std::uint32_t n = t.numThreads();
    std::uint32_t pred = (t.id() + n - 1) % n;
    Addr my_flag = AddrMap::sharedArray(slot) +
                   static_cast<Addr>(t.id()) * mem::kLineBytes;
    Addr pred_flag = AddrMap::sharedArray(slot) +
                     static_cast<Addr>(pred) * mem::kLineBytes;

    for (std::uint64_t i = 1; i <= items; ++i) {
        // Produce: stage work over private data, then publish item i.
        co_await streamPrivate(t, (i % 8) * 128, private_lines,
                               compute_producer);
        co_await t.store(my_flag + 8, i);   // payload word
        co_await t.fence();
        co_await t.store(my_flag, i);       // ready flag
        co_await t.fence();
        // Consume item i from my predecessor.
        co_await syn::spinUntilAtLeast(t, pred_flag, i);
        co_await t.loadNb(pred_flag + 8);
        co_await t.compute(compute_consumer);
    }
    co_return;
}

} // namespace

Task
dedup(Thread &t, const WorkloadParams &p)
{
    // Chunking + SHA1 hashing: hash arithmetic dominates; private
    // chunk buffers stream (Table IV: 4.1 MPKI).
    return pipeline(t, /*slot=*/14,
                    /*items=*/p.perThread(6, t.numThreads()),
                    /*compute_producer=*/260, /*compute_consumer=*/120,
                    /*private_lines=*/8);
}

Task
ferret(Thread &t, const WorkloadParams &p)
{
    // Image-similarity search: heavier per-item compute and a larger
    // streamed feature footprint (Table IV: 6.34 MPKI).
    return pipeline(t, /*slot=*/15,
                    /*items=*/p.perThread(5, t.numThreads()),
                    /*compute_producer=*/170, /*compute_consumer=*/140,
                    /*private_lines=*/14);
}

} // namespace widir::workload::apps
