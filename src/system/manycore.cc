#include "system/manycore.h"

#include <cstdio>
#include <string>

#include "sim/log.h"

namespace widir::sys {

Manycore::Manycore(const SystemConfig &cfg) : cfg_(cfg)
{
    WIDIR_ASSERT(cfg_.numCores > 0, "machine needs cores");
    WIDIR_ASSERT(cfg_.protocol.maxWiredSharers <=
                     cfg_.protocol.dirPointers,
                 "MaxWiredSharers must fit in the sharer pointers "
                 "(Section III-B)");

    sim_ = std::make_unique<sim::Simulator>(cfg_.seed);

    cfg_.mesh.numNodes = cfg_.numCores;
    mesh_ = std::make_unique<noc::Mesh>(*sim_, cfg_.mesh);

    memory_ = std::make_unique<mem::MainMemory>(*sim_, cfg_.memory);

    if (cfg_.protocol.wireless()) {
        cfg_.wnoc.numNodes = cfg_.numCores;
        dataChannel_ =
            std::make_unique<wireless::DataChannel>(*sim_, cfg_.wnoc);
        toneChannel_ = std::make_unique<wireless::ToneChannel>(
            *sim_, cfg_.numCores);
        if (cfg_.fault.enabled()) {
            // Dedicated RNG stream: the fault layer must not perturb
            // the draws of the clean-machine streams (docs/FAULTS.md).
            faultModel_ = std::make_unique<fault::FaultModel>(
                cfg_.fault,
                sim_->makeRng(0xFA171E57ULL + cfg_.fault.seed));
            dataChannel_->setFaultModel(faultModel_.get());
            toneChannel_->setFaultModel(faultModel_.get());
        }
    }

    fabric_ = std::make_unique<coherence::CoherenceFabric>(
        *sim_, cfg_.protocol, *mesh_, *memory_, dataChannel_.get(),
        toneChannel_.get());

    std::vector<coherence::L1Controller *> l1_ptrs;
    std::vector<coherence::DirectoryController *> dir_ptrs;
    for (sim::NodeId n = 0; n < cfg_.numCores; ++n) {
        dirs_.push_back(
            std::make_unique<coherence::DirectoryController>(
                *fabric_, n, cfg_.llc));
        l1s_.push_back(std::make_unique<coherence::L1Controller>(
            *fabric_, n, cfg_.l1));
        dir_ptrs.push_back(dirs_.back().get());
        l1_ptrs.push_back(l1s_.back().get());
    }
    fabric_->attach(l1_ptrs, dir_ptrs);

    if (dataChannel_) {
        for (sim::NodeId n = 0; n < cfg_.numCores; ++n) {
            auto *l1 = l1_ptrs[n];
            auto *dir = dir_ptrs[n];
            dataChannel_->setReceiver(
                n, [l1, dir](const wireless::Frame &frame) {
                    // Both the private cache and the local directory
                    // slice observe every broadcast frame.
                    l1->receiveFrame(frame);
                    dir->receiveFrame(frame);
                });
        }
    }

}

Manycore::~Manycore() = default;

void
Manycore::installFrontend(const frontend::FrontendSpec &spec)
{
    WIDIR_ASSERT(!frontend_, "frontend installed twice");
    std::vector<coherence::L1Controller *> l1_ptrs;
    l1_ptrs.reserve(l1s_.size());
    for (const auto &l1 : l1s_)
        l1_ptrs.push_back(l1.get());
    frontend_ = std::make_unique<frontend::Frontend>(spec, *sim_, l1_ptrs,
                                                     cfg_.core);
}

cpu::Core &
Manycore::core(sim::NodeId n)
{
    WIDIR_ASSERT(frontend_, "no frontend installed");
    return frontend_->core(n);
}

sim::Tick
Manycore::run(const Program &program, sim::Tick watchdog_cycles)
{
    if (!frontend_)
        installFrontend(frontend::FrontendSpec{});
    frontend_->start(program);
    if (!sim_->run(watchdog_cycles)) {
        // Name what is stuck before giving up: every open transaction
        // and every frame still waiting for the wireless channel.
        std::string out = sim::strfmt(
            "watchdog: outstanding at tick %llu\n",
            static_cast<unsigned long long>(sim_->now()));
        for (const auto &l1 : l1s_)
            l1->describeOutstanding(out);
        for (const auto &dir : dirs_)
            dir->describeOutstanding(out);
        if (dataChannel_)
            dataChannel_->describePending(out);
        std::fputs(out.c_str(), stderr);
        sim::fatal("watchdog: 'manycore program' did not quiesce within "
                   "%llu cycles (likely protocol deadlock/livelock)",
                   static_cast<unsigned long long>(watchdog_cycles));
    }
    WIDIR_ASSERT(frontend_->allFinished(),
                 "machine quiesced with an unfinished core "
                 "(thread deadlocked on memory values?)");
    return frontend_->finishTick();
}

cpu::Core::Stats
Manycore::cpuTotals() const
{
    WIDIR_ASSERT(frontend_, "no frontend installed");
    return frontend_->cpuTotals();
}

std::uint64_t
Manycore::hostMsgpoolGrew() const
{
    return fabric_->msgPoolGrew();
}

std::uint64_t
Manycore::hostMapRehashes() const
{
    std::uint64_t n = memory_->mapRehashes();
    for (const auto &l1 : l1s_)
        n += l1->mapRehashes();
    for (const auto &dir : dirs_)
        n += dir->mapRehashes();
    return n;
}

coherence::L1Controller::Stats
Manycore::l1Totals() const
{
    coherence::L1Controller::Stats total;
    for (const auto &l1 : l1s_) {
        const auto &s = l1->stats();
        total.loads += s.loads;
        total.stores += s.stores;
        total.rmws += s.rmws;
        total.loadHits += s.loadHits;
        total.storeHits += s.storeHits;
        total.readMisses += s.readMisses;
        total.writeMisses += s.writeMisses;
        total.nacksSeen += s.nacksSeen;
        total.evictions += s.evictions;
        total.putWSent += s.putWSent;
        total.selfInvalidations += s.selfInvalidations;
        total.wirelessWrites += s.wirelessWrites;
        total.wirelessSquashes += s.wirelessSquashes;
        total.updatesApplied += s.updatesApplied;
    }
    return total;
}

coherence::DirectoryController::Stats
Manycore::dirTotals() const
{
    coherence::DirectoryController::Stats total;
    for (const auto &dir : dirs_) {
        const auto &s = dir->stats();
        total.getS += s.getS;
        total.getX += s.getX;
        total.nacksSent += s.nacksSent;
        total.invsSent += s.invsSent;
        total.bcastInvBursts += s.bcastInvBursts;
        total.fwds += s.fwds;
        total.memFetches += s.memFetches;
        total.memWritebacks += s.memWritebacks;
        total.llcRecalls += s.llcRecalls;
        total.toWireless += s.toWireless;
        total.toShared += s.toShared;
        total.wJoins += s.wJoins;
        total.wirInvs += s.wirInvs;
        total.updatesObserved += s.updatesObserved;
        total.dirAccesses += s.dirAccesses;
    }
    return total;
}

sim::BinnedHistogram
Manycore::sharersUpdatedTotals() const
{
    sim::BinnedHistogram total({5, 10, 25, 49}, true);
    for (const auto &dir : dirs_) {
        const auto &h = dir->sharersUpdatedHistogram();
        // Bins are identical across slices: merge counts via sample()
        // of each bin's lower bound.
        for (const auto &bin : h.bins()) {
            if (bin.count > 0)
                total.sample(bin.lo, bin.count);
        }
    }
    return total;
}

} // namespace widir::sys
