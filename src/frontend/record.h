/**
 * @file
 * Recorder: the cpu::OpSink implementation behind the recording
 * frontend. One ThreadRecorder per core appends encoded
 * widir-mtrace-v1 records to a private OpStream as the core issues
 * them; every stream spills its full pieces into one shared temporary
 * file, so the recorder holds less than a piece per core.
 *
 * Recording is pure observation (see cpu/op_sink.h): the recorded run
 * is byte-identical to the same run unrecorded.
 */

#ifndef WIDIR_FRONTEND_RECORD_H
#define WIDIR_FRONTEND_RECORD_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cpu/op_sink.h"
#include "frontend/mtrace.h"

namespace widir::frontend {

/** Collects one widir-mtrace-v1 op stream per core. */
class Recorder
{
  public:
    explicit Recorder(std::uint32_t num_threads)
    {
        const auto store = std::make_shared<TraceStore>();
        threads_.reserve(num_threads);
        for (std::uint32_t t = 0; t < num_threads; ++t)
            threads_.push_back(std::make_unique<ThreadRecorder>(store));
    }

    /** The sink to install on core @p tid. */
    cpu::OpSink &
    sink(std::uint32_t tid)
    {
        return *threads_.at(tid);
    }

    /**
     * Move the recorded streams out into a trace stamped with
     * @p header. The recorder is empty afterwards.
     */
    MemTrace
    finish(TraceHeader header)
    {
        MemTrace trace;
        trace.header = std::move(header);
        trace.threads.reserve(threads_.size());
        for (auto &t : threads_)
        {
            // An RMW still waiting for its result (the run stopped
            // with it in flight) is kept with old == new == 0.
            t->flushWaiting();
            trace.threads.push_back(std::move(t->stream));
        }
        return trace;
    }

  private:
    struct ThreadRecorder final : cpu::OpSink
    {
        explicit ThreadRecorder(std::shared_ptr<TraceStore> store)
            : stream(std::move(store))
        {
        }

        OpStream stream;
        /// The in-flight RMW, whose old and new values arrive later
        /// (rmwResult()), and every record issued after it: encoded
        /// in order once the RMW completes. Empty otherwise.
        std::vector<Op> waiting;
        /// modify evaluations of the in-flight RMW (rmwEval()).
        std::vector<std::pair<std::uint64_t, std::uint64_t>>
            pendingEvals;

        void
        add(const Op &op)
        {
            if (waiting.empty())
                stream.append(op);
            else
                waiting.push_back(op);
        }

        void
        flushWaiting()
        {
            for (const Op &op : waiting)
                stream.append(op);
            waiting.clear();
        }

        void
        compute(std::uint64_t count) override
        {
            add({OpKind::Compute, cpu::SyncNote::External, 0, count, 0,
                 {}});
        }

        void
        load(sim::Addr addr, bool blocking) override
        {
            add({blocking ? OpKind::Load : OpKind::LoadNb,
                 cpu::SyncNote::External, addr, 0, 0, {}});
        }

        void
        store(sim::Addr addr, std::uint64_t value) override
        {
            add({OpKind::Store, cpu::SyncNote::External, addr, value, 0,
                 {}});
        }

        void
        rmw(sim::Addr addr) override
        {
            // A core has at most one RMW in flight (Core asserts it),
            // so waiting holds one RMW, at its front.
            pendingEvals.clear();
            waiting.push_back(
                {OpKind::Rmw, cpu::SyncNote::External, addr, 0, 0, {}});
        }

        void
        rmwEval(std::uint64_t in, std::uint64_t result) override
        {
            // The modify function is pure, so keep one pair per
            // distinct input (the L1 legitimately re-evaluates the
            // same value for its no-op check and the frame payload).
            for (const auto &[i, r] : pendingEvals)
            {
                if (i == in)
                    return;
            }
            pendingEvals.emplace_back(in, result);
        }

        void
        rmwResult(std::uint64_t old_value,
                  std::uint64_t new_value) override
        {
            Op &op = waiting.at(0);
            op.a = old_value;
            op.b = new_value;
            // Keep only evaluations the final (a, b) pair cannot
            // reproduce -- squashed speculative attempts on a line
            // value that a remote update then changed.
            for (const auto &[in, result] : pendingEvals)
            {
                if (in != old_value)
                    op.evals.emplace_back(in, result);
            }
            pendingEvals.clear();
            flushWaiting();
        }

        void
        idle(sim::Tick cycles) override
        {
            add({OpKind::Idle, cpu::SyncNote::External, 0, cycles, 0,
                 {}});
        }

        void
        fence() override
        {
            add({OpKind::Fence, cpu::SyncNote::External, 0, 0, 0, {}});
        }

        void
        sync(cpu::SyncNote kind, sim::Addr addr,
             sim::Tick now) override
        {
            // The completion tick is the ordering key the replay
            // gate sorts on.
            add({OpKind::Sync, kind, addr, now, 0, {}});
        }
    };

    std::vector<std::unique_ptr<ThreadRecorder>> threads_;
};

} // namespace widir::frontend

#endif // WIDIR_FRONTEND_RECORD_H
