/**
 * @file
 * JSON report tests: the widir-sweep-v1 document every bench binary
 * writes must parse back, and every ExperimentResult field must
 * round-trip through the writer + parser unchanged.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "system/report.h"
#include "system/sweep.h"
#include "temp_path.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using sys::ExperimentResult;
using sys::ExperimentSpec;

/** A result with every field populated with distinctive values. */
ExperimentResult
fakeResult()
{
    ExperimentResult r;
    r.app = "fake-app \"quoted\"";
    r.protocol = coherence::Protocol::WiDir;
    r.cores = 64;
    r.seed = 12345;
    r.scale = 3;
    r.maxWiredSharers = 4;
    r.updateCountThreshold = 8;
    r.cycles = 987654321;
    r.instructions = 1000000;
    r.loads = 2222;
    r.stores = 3333;
    r.readMisses = 440;
    r.writeMisses = 550;
    r.memStallCycles = 777;
    r.totalCoreCycles = 987654321ull * 64;
    r.loadLatencySum = 11111;
    r.storeLatencySum = 22222;
    r.hopBinCounts = {1, 2, 3, 4, 5};
    r.wiredMessages = 15;
    r.sharersUpdatedBins = {9, 8, 7, 6, 5};
    r.wirelessWrites = 35;
    r.selfInvalidations = 17;
    r.collisionProbability = 0.03125;
    r.toWireless = 12;
    r.toShared = 13;
    r.energy.core = 1.5;
    r.energy.l1 = 2.25;
    r.energy.l2dir = 3.75;
    r.energy.noc = 4.125;
    r.energy.wnoc = 0.0625;
    r.executedEvents = 424242;
    r.hostSeconds = 0.5;
    r.hostEventsPerSec = 848484.0;
    r.hostBuildSeconds = 0.125;
    r.hostCheckSeconds = 0.0078125;
    r.hostMsgpoolGrew = 3;
    r.hostMapRehashes = 9;
    return r;
}

/** Real result from a small simulation (covers live field values). */
ExperimentResult
realResult()
{
    ExperimentSpec spec;
    spec.app = workload::findApp("radiosity");
    spec.protocol = coherence::Protocol::WiDir;
    spec.cores = 16;
    spec.scale = 1;
    return sys::runExperiment(spec);
}

void
expectRoundTrips(const ExperimentResult &r, const sys::json::Value &v)
{
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("app")->string, r.app);
    EXPECT_EQ(v.find("protocol")->string,
              r.protocol == coherence::Protocol::WiDir ? "widir"
                                                       : "baseline");
    EXPECT_EQ(v.find("cores")->asUint(), r.cores);
    EXPECT_EQ(v.find("seed")->asUint(), r.seed);
    EXPECT_EQ(v.find("scale")->asUint(), r.scale);
    EXPECT_EQ(v.find("max_wired_sharers")->asUint(), r.maxWiredSharers);
    EXPECT_EQ(v.find("update_count_threshold")->asUint(),
              r.updateCountThreshold);
    EXPECT_EQ(v.find("cycles")->asUint(), r.cycles);
    EXPECT_EQ(v.find("instructions")->asUint(), r.instructions);
    EXPECT_EQ(v.find("loads")->asUint(), r.loads);
    EXPECT_EQ(v.find("stores")->asUint(), r.stores);
    EXPECT_EQ(v.find("read_misses")->asUint(), r.readMisses);
    EXPECT_EQ(v.find("write_misses")->asUint(), r.writeMisses);
    EXPECT_EQ(v.find("mpki")->number, r.mpki());
    EXPECT_EQ(v.find("read_mpki")->number, r.readMpki());
    EXPECT_EQ(v.find("write_mpki")->number, r.writeMpki());
    EXPECT_EQ(v.find("mem_stall_cycles")->asUint(), r.memStallCycles);
    EXPECT_EQ(v.find("total_core_cycles")->asUint(), r.totalCoreCycles);
    EXPECT_EQ(v.find("mem_stall_fraction")->number,
              r.memStallFraction());
    EXPECT_EQ(v.find("load_latency_sum")->asUint(), r.loadLatencySum);
    EXPECT_EQ(v.find("store_latency_sum")->asUint(), r.storeLatencySum);

    const auto *hops = v.find("hop_bin_counts");
    ASSERT_TRUE(hops && hops->isArray());
    ASSERT_EQ(hops->array.size(), r.hopBinCounts.size());
    for (std::size_t i = 0; i < r.hopBinCounts.size(); ++i)
        EXPECT_EQ(hops->array[i].asUint(), r.hopBinCounts[i]);
    EXPECT_EQ(v.find("wired_messages")->asUint(), r.wiredMessages);

    const auto *bins = v.find("sharers_updated_bins");
    ASSERT_TRUE(bins && bins->isArray());
    ASSERT_EQ(bins->array.size(), r.sharersUpdatedBins.size());
    for (std::size_t i = 0; i < r.sharersUpdatedBins.size(); ++i)
        EXPECT_EQ(bins->array[i].asUint(), r.sharersUpdatedBins[i]);

    EXPECT_EQ(v.find("wireless_writes")->asUint(), r.wirelessWrites);
    EXPECT_EQ(v.find("self_invalidations")->asUint(),
              r.selfInvalidations);
    EXPECT_EQ(v.find("collision_probability")->number,
              r.collisionProbability);
    EXPECT_EQ(v.find("to_wireless")->asUint(), r.toWireless);
    EXPECT_EQ(v.find("to_shared")->asUint(), r.toShared);
    EXPECT_EQ(v.find("executed_events")->asUint(), r.executedEvents);
    EXPECT_EQ(v.find("host_wall_seconds")->number, r.hostSeconds);
    EXPECT_EQ(v.find("host_events_per_sec")->number,
              r.hostEventsPerSec);
    ASSERT_NE(v.find("host_build_seconds"), nullptr);
    EXPECT_EQ(v.find("host_build_seconds")->number, r.hostBuildSeconds);
    ASSERT_NE(v.find("host_check_seconds"), nullptr);
    EXPECT_EQ(v.find("host_check_seconds")->number, r.hostCheckSeconds);
    EXPECT_EQ(v.find("host_msgpool_grew")->asUint(), r.hostMsgpoolGrew);
    EXPECT_EQ(v.find("host_map_rehashes")->asUint(), r.hostMapRehashes);

    const auto *energy = v.find("energy");
    ASSERT_TRUE(energy && energy->isObject());
    EXPECT_EQ(energy->find("core")->number, r.energy.core);
    EXPECT_EQ(energy->find("l1")->number, r.energy.l1);
    EXPECT_EQ(energy->find("l2dir")->number, r.energy.l2dir);
    EXPECT_EQ(energy->find("noc")->number, r.energy.noc);
    EXPECT_EQ(energy->find("wnoc")->number, r.energy.wnoc);
    EXPECT_EQ(energy->find("total")->number, r.energy.total());
}

TEST(Report, EveryFieldRoundTrips)
{
    std::vector<ExperimentResult> results = {fakeResult(), realResult()};
    std::string text = sys::resultsToJson("round_trip", results);

    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse(text, doc, &err)) << err;
    EXPECT_EQ(doc.find("schema")->string, "widir-sweep-v1");
    EXPECT_EQ(doc.find("name")->string, "round_trip");
    const auto *arr = doc.find("results");
    ASSERT_TRUE(arr && arr->isArray());
    ASSERT_EQ(arr->array.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(i);
        expectRoundTrips(results[i], arr->array[i]);
    }
}

TEST(Report, WriteCreatesDirectoriesAndValidJson)
{
    auto dir =
        std::filesystem::path(test::testTempPath("report")) / "nested";
    std::filesystem::remove_all(dir.parent_path());
    auto path = (dir / "sweep.json").string();

    std::vector<ExperimentResult> results = {fakeResult()};
    ASSERT_TRUE(sys::writeResultsJson(path, "disk_check", results));

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();

    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse(ss.str(), doc, &err)) << err;
    EXPECT_EQ(doc.find("name")->string, "disk_check");
    std::filesystem::remove_all(dir.parent_path());
}

TEST(Report, EmptySweepIsValidJson)
{
    std::string text = sys::resultsToJson("empty", {});
    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse(text, doc, &err)) << err;
    const auto *arr = doc.find("results");
    ASSERT_TRUE(arr && arr->isArray());
    EXPECT_TRUE(arr->array.empty());
}

TEST(Report, HostileNamesRoundTrip)
{
    // Sweep and app names with every character class the writer must
    // escape: quotes, backslashes, newlines, tabs, CR, and raw control
    // bytes. The emitted document must parse, and the strings must
    // come back byte-for-byte.
    const std::string hostile =
        "ev\"il\\app\nwith\ttabs\rand\x01\x1f ctrl";
    ExperimentResult r = fakeResult();
    r.app = hostile;
    std::string text = sys::resultsToJson(hostile, {r});

    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse(text, doc, &err)) << err;
    EXPECT_EQ(doc.find("name")->string, hostile);
    const auto *arr = doc.find("results");
    ASSERT_TRUE(arr && arr->isArray() && arr->array.size() == 1u);
    EXPECT_EQ(arr->array[0].find("app")->string, hostile);
}

TEST(Report, NonFiniteNumbersAreClamped)
{
    // NaN/Inf have no JSON encoding; the writer clamps them to 0 so a
    // pathological host clock can never produce an unparseable sweep.
    ExperimentResult r = fakeResult();
    r.hostSeconds = std::nan("");
    r.hostEventsPerSec = std::numeric_limits<double>::infinity();
    r.collisionProbability = -std::numeric_limits<double>::infinity();
    std::string text = sys::resultsToJson("clamped", {r});

    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse(text, doc, &err)) << err;
    const auto &res = doc.find("results")->array[0];
    EXPECT_EQ(res.find("host_wall_seconds")->number, 0.0);
    EXPECT_EQ(res.find("host_events_per_sec")->number, 0.0);
    EXPECT_EQ(res.find("collision_probability")->number, 0.0);
}

TEST(Report, PhaseTimingsFollowTheRunTiming)
{
    // A live run times its build and check phases.
    ExperimentResult live = realResult();
    EXPECT_GT(live.hostBuildSeconds, 0.0);
    EXPECT_GT(live.hostCheckSeconds, 0.0);

    // Zeroing hostSeconds -- what every run-to-run comparison does --
    // drops the phase timings from the document too, so two runs of
    // one configuration serialize identically.
    ExperimentResult r = fakeResult();
    r.hostSeconds = 0.0;
    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse(sys::resultsToJson("untimed", {r}), doc,
                                 &err))
        << err;
    const auto &res = doc.find("results")->array[0];
    EXPECT_EQ(res.find("host_build_seconds"), nullptr);
    EXPECT_EQ(res.find("host_check_seconds"), nullptr);
    EXPECT_NE(res.find("host_wall_seconds"), nullptr);
}

TEST(Report, FaultBlockRoundTripsOnlyWhenArmed)
{
    // Clean result: no "fault" key at all (clean sweeps stay
    // byte-identical to pre-fault-injection output).
    ExperimentResult clean = fakeResult();
    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(
        sys::json::parse(sys::resultsToJson("clean", {clean}), doc, &err))
        << err;
    EXPECT_EQ(doc.find("results")->array[0].find("fault"), nullptr);

    // Faulted result: the knob echo and every counter round-trips.
    ExperimentResult r = fakeResult();
    r.faultInjection = true;
    r.fault.ber = 1e-4;
    r.fault.preambleLossProb = 0.01;
    r.fault.toneLossProb = 0.02;
    r.fault.burstBer = 0.5;
    r.fault.burstEnterProb = 0.001;
    r.fault.burstExitProb = 0.125;
    r.fault.frameBits = 96;
    r.fault.retryBudget = 5;
    r.fault.seed = 77;
    r.frameCrcErrors = 11;
    r.framePreambleLosses = 22;
    r.faultRetries = 33;
    r.frameFaultDrops = 44;
    r.toneRetries = 55;
    r.wirelessFallbacks = 66;
    // Reusing `doc` on purpose: parse() must reset the holder, not
    // merge the faulted tree into the clean one parsed above.
    ASSERT_TRUE(
        sys::json::parse(sys::resultsToJson("faulted", {r}), doc, &err))
        << err;
    const auto *f = doc.find("results")->array[0].find("fault");
    ASSERT_TRUE(f && f->isObject());
    EXPECT_EQ(f->find("ber")->number, r.fault.ber);
    EXPECT_EQ(f->find("preamble_loss_prob")->number,
              r.fault.preambleLossProb);
    EXPECT_EQ(f->find("tone_loss_prob")->number, r.fault.toneLossProb);
    EXPECT_EQ(f->find("burst_ber")->number, r.fault.burstBer);
    EXPECT_EQ(f->find("burst_enter_prob")->number,
              r.fault.burstEnterProb);
    EXPECT_EQ(f->find("burst_exit_prob")->number, r.fault.burstExitProb);
    EXPECT_EQ(f->find("frame_bits")->asUint(), r.fault.frameBits);
    EXPECT_EQ(f->find("retry_budget")->asUint(), r.fault.retryBudget);
    EXPECT_EQ(f->find("fault_seed")->asUint(), r.fault.seed);
    EXPECT_EQ(f->find("frame_crc_errors")->asUint(), r.frameCrcErrors);
    EXPECT_EQ(f->find("frame_preamble_losses")->asUint(),
              r.framePreambleLosses);
    EXPECT_EQ(f->find("fault_retries")->asUint(), r.faultRetries);
    EXPECT_EQ(f->find("frame_fault_drops")->asUint(), r.frameFaultDrops);
    EXPECT_EQ(f->find("tone_retries")->asUint(), r.toneRetries);
    EXPECT_EQ(f->find("wireless_fallbacks")->asUint(),
              r.wirelessFallbacks);
}

TEST(Report, FrontendBlockRoundTripsOnlyWhenNonDefault)
{
    // Default (coroutine) runs emit no "frontend" key: classic sweeps
    // stay byte-identical to documents written before frontends
    // existed.
    ExperimentResult plain = fakeResult();
    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse(sys::resultsToJson("plain", {plain}),
                                 doc, &err))
        << err;
    EXPECT_EQ(doc.find("results")->array[0].find("frontend"), nullptr);

    // Recording run: kind + record_path, no replay_path.
    ExperimentResult rec = fakeResult();
    rec.frontendKind = frontend::FrontendKind::Record;
    rec.recordPath = "out/traces/fft.mtrace";
    ASSERT_TRUE(sys::json::parse(sys::resultsToJson("rec", {rec}), doc,
                                 &err))
        << err;
    const auto *fb = doc.find("results")->array[0].find("frontend");
    ASSERT_TRUE(fb && fb->isObject());
    EXPECT_EQ(fb->find("kind")->string, "record");
    EXPECT_EQ(fb->find("record_path")->string, rec.recordPath);
    EXPECT_EQ(fb->find("replay_path"), nullptr);

    // Replay run: kind + replay_path, no record_path.
    ExperimentResult rep = fakeResult();
    rep.frontendKind = frontend::FrontendKind::ReplayFull;
    rep.replayPath = "out/traces/fft.mtrace";
    ASSERT_TRUE(sys::json::parse(sys::resultsToJson("rep", {rep}), doc,
                                 &err))
        << err;
    fb = doc.find("results")->array[0].find("frontend");
    ASSERT_TRUE(fb && fb->isObject());
    EXPECT_EQ(fb->find("kind")->string, "replay-full");
    EXPECT_EQ(fb->find("replay_path")->string, rep.replayPath);
    EXPECT_EQ(fb->find("record_path"), nullptr);
}

TEST(JsonParser, AcceptsScalarsAndNesting)
{
    sys::json::Value v;
    std::string err;
    ASSERT_TRUE(sys::json::parse(
        "{\"a\": [1, -2.5, \"x\\n\", true, false, null], \"b\": {}}",
        v, &err))
        << err;
    const auto *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->array.size(), 6u);
    EXPECT_EQ(a->array[0].asUint(), 1u);
    EXPECT_EQ(a->array[1].number, -2.5);
    EXPECT_FALSE(a->array[1].isInteger);
    EXPECT_EQ(a->array[2].string, "x\n");
    EXPECT_TRUE(a->array[3].boolean);
    EXPECT_FALSE(a->array[4].boolean);
    EXPECT_TRUE(a->array[5].isNull());
    ASSERT_TRUE(v.find("b") && v.find("b")->isObject());
}

TEST(JsonParser, RejectsMalformedInput)
{
    for (const char *bad : {"{\"a\": }", "[1, 2", "{} trailing",
                            "\"unterminated", "", "{1: 2}"}) {
        sys::json::Value v;
        std::string err;
        EXPECT_FALSE(sys::json::parse(bad, v, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

} // namespace
