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

/** @p r with the fault layer armed and every fault field distinctive. */
ExperimentResult
faulted(ExperimentResult r)
{
    r.faultInjection = true;
    r.fault.ber = 1e-4;
    r.fault.preambleLossProb = 0.01;
    r.fault.toneLossProb = 0.02;
    r.fault.burstBer = 0.5;
    r.fault.burstEnterProb = 0.001;
    r.fault.burstExitProb = 0.125;
    r.fault.frameBits = 96;
    r.fault.seed = 77;
    r.frameCrcErrors = 11;
    r.framePreambleLosses = 22;
    r.faultRetries = 33;
    r.toneRetries = 55;
    return r;
}

/** A faulted, recorded result on a non-default topology: every block. */
ExperimentResult
everyBlock()
{
    ExperimentResult r = faulted(fakeResult());
    r.meshConcentration = 4;
    r.wirelessChannels = 2;
    r.homeMap = mem::HomeMap::Hash;
    r.frontendKind = frontend::FrontendKind::Record;
    r.recordPath = "out/traces/fft.mtrace";
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

/**
 * Parsed result object @p v holds get(r) for every row written for
 * @p r, lacks every other row's key, and has no key (or block) that
 * is not a row written for @p r.
 */
void
expectRoundTrips(const ExperimentResult &r, const sys::json::Value &v)
{
    ASSERT_TRUE(v.isObject());
    for (const sys::ReportField &f : sys::reportFields()) {
        SCOPED_TRACE(std::string(f.block) + "/" + f.name);
        const sys::json::Value *got = f.lookup(v);
        if (!f.written(r)) {
            EXPECT_EQ(got, nullptr);
            continue;
        }
        ASSERT_NE(got, nullptr);
        EXPECT_TRUE(*got == f.get(r));
    }
    auto written = [&r](const std::string &block,
                        const std::string &name) {
        for (const sys::ReportField &f : sys::reportFields()) {
            if (f.written(r) &&
                ((block == f.block && name == f.name) ||
                 (block.empty() && name == f.block)))
                return true;
        }
        return false;
    };
    for (const auto &[key, member] : v.object) {
        EXPECT_TRUE(written("", key)) << key;
        for (const auto &[inner, unused] : member.object)
            EXPECT_TRUE(written(key, inner)) << key << "/" << inner;
    }
}

/** Serialize @p r alone and parse the result object back. */
sys::json::Value
parsedResult(const ExperimentResult &r)
{
    sys::json::Value doc;
    std::string err;
    EXPECT_TRUE(sys::json::parse(sys::resultsToJson("one", {r}), doc,
                                 &err))
        << err;
    const auto *arr = doc.find("results");
    return arr && arr->array.size() == 1 ? arr->array[0]
                                         : sys::json::Value{};
}

TEST(Report, EveryFieldRoundTrips)
{
    std::vector<ExperimentResult> results = {fakeResult(), realResult(),
                                             everyBlock()};
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

    // Zeroing hostSeconds -- what perfbench's repetition check does --
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
    expectRoundTrips(clean, parsedResult(clean));

    // Faulted result: the knob echo and every counter round-trip.
    ExperimentResult r = faulted(fakeResult());
    expectRoundTrips(r, parsedResult(r));
}

TEST(Report, FrontendBlockRoundTripsOnlyWhenNonDefault)
{
    // Default (coroutine) runs emit no "frontend" key: classic sweeps
    // stay byte-identical to documents written before frontends
    // existed.
    ExperimentResult plain = fakeResult();
    expectRoundTrips(plain, parsedResult(plain));

    // Recording run: kind + record_path, no replay_path.
    ExperimentResult rec = fakeResult();
    rec.frontendKind = frontend::FrontendKind::Record;
    rec.recordPath = "out/traces/fft.mtrace";
    expectRoundTrips(rec, parsedResult(rec));

    // Replay run: kind + replay_path, no record_path.
    ExperimentResult rep = fakeResult();
    rep.frontendKind = frontend::FrontendKind::ReplayFull;
    rep.replayPath = "out/traces/fft.mtrace";
    expectRoundTrips(rep, parsedResult(rep));
}

TEST(Report, MachineJsonDropsExactlyTheHostRows)
{
    ExperimentResult r = everyBlock(); // every row is written
    sys::json::Value v;
    std::string err;
    ASSERT_TRUE(sys::json::parse(sys::machineJson(r), v, &err)) << err;
    for (const sys::ReportField &f : sys::reportFields())
        EXPECT_EQ(f.lookup(v) == nullptr, f.host) << f.block << "/" << f.name;
    EXPECT_EQ(v.find("frontend"), nullptr);
}

TEST(Report, DocumentBytesArePinned)
{
    // Pieces of a document written by the hand-coded writer the field
    // table replaced. They pin every key name, the key order, the
    // number formats and the nesting of each block at indent 4.
    const std::string top = R"(
      "app": "fake-app \"quoted\"",
      "protocol": "widir",
      "cores": 64,
      "seed": 12345,
      "scale": 3,
      "max_wired_sharers": 4,
      "update_count_threshold": 8,
      "cycles": 987654321,
      "instructions": 1000000,
      "loads": 2222,
      "stores": 3333,
      "read_misses": 440,
      "write_misses": 550,
      "mpki": 0.98999999999999999,
      "read_mpki": 0.44,
      "write_mpki": 0.55000000000000004,
      "mem_stall_cycles": 777,
      "total_core_cycles": 63209876544,
      "mem_stall_fraction": 1.2292382812346345e-08,
      "load_latency_sum": 11111,
      "store_latency_sum": 22222,
      "hop_bin_counts": [1, 2, 3, 4, 5],
      "wired_messages": 15,
      "sharers_updated_bins": [9, 8, 7, 6, 5],
      "wireless_writes": 35,
      "self_invalidations": 17,
      "collision_probability": 0.03125,
      "to_wireless": 12,
      "to_shared": 13,)";
    const std::string topology = R"(
      "topology": {
        "mesh_concentration": 4,
        "wireless_channels": 2,
        "home_map": "hash"
      },)";
    const std::string host = R"(
      "executed_events": 424242,
      "host_wall_seconds": 0.5,
      "host_events_per_sec": 848484,
      "host_build_seconds": 0.125,
      "host_check_seconds": 0.0078125,
      "host_msgpool_grew": 3,
      "host_map_rehashes": 9,)";
    const std::string frontend = R"(
      "frontend": {
        "kind": "record",
        "record_path": "out/traces/fft.mtrace"
      },)";
    const std::string fault = R"(
      "fault": {
        "ber": 0.0001,
        "preamble_loss_prob": 0.01,
        "tone_loss_prob": 0.02,
        "burst_ber": 0.5,
        "burst_enter_prob": 0.001,
        "burst_exit_prob": 0.125,
        "frame_bits": 96,
        "fault_seed": 77,
        "frame_crc_errors": 11,
        "frame_preamble_losses": 22,
        "fault_retries": 33,
        "tone_retries": 55
      },)";
    const std::string energy = R"(
      "energy": {
        "core": 1.5,
        "l1": 2.25,
        "l2dir": 3.75,
        "noc": 4.125,
        "wnoc": 0.0625,
        "total": 11.6875
      })";
    EXPECT_EQ(sys::resultsToJson("pinned", {fakeResult(), everyBlock()}),
              R"({
  "schema": "widir-sweep-v1",
  "name": "pinned",
  "results": [
    {)" + top + host + energy + R"(
    },
    {)" + top + topology + host + frontend + fault + energy +
                  R"(
    }
  ]
}
)");
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

TEST(JsonParser, ParseResetsTheHolder)
{
    // Callers reuse Value holders: parse() must reset the holder, not
    // merge the second tree into the first.
    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse("{\"a\": 1}", doc, &err)) << err;
    ASSERT_TRUE(sys::json::parse("{\"b\": 2}", doc, &err)) << err;
    EXPECT_EQ(doc.find("a"), nullptr);
    EXPECT_EQ(doc.find("b")->asUint(), 2u);
}

} // namespace
