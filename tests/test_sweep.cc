/**
 * @file
 * SweepRunner tests: a parallel sweep must be a drop-in replacement
 * for running the same specs serially -- results in spec order,
 * field-for-field identical regardless of worker count. This is the
 * guard on runExperiment's re-entrancy: any shared mutable state
 * between concurrent simulations shows up here as a diff (or a
 * crash under a sanitizer).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "system/report.h"
#include "system/sweep.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using sys::ExperimentResult;
using sys::ExperimentSpec;
using sys::SweepRunner;

ExperimentSpec
spec(const char *app, coherence::Protocol proto, std::uint32_t cores)
{
    ExperimentSpec s;
    s.app = workload::findApp(app);
    EXPECT_NE(s.app, nullptr) << app;
    s.protocol = proto;
    s.cores = cores;
    s.scale = 1;
    return s;
}

/** Mixed 8+ spec batch exercising both protocols and wireless load. */
std::vector<ExperimentSpec>
mixedBatch()
{
    using coherence::Protocol;
    std::vector<ExperimentSpec> specs;
    for (const char *app : {"radiosity", "barnes", "fft",
                            "blackscholes"}) {
        specs.push_back(spec(app, Protocol::BaselineMESI, 16));
        specs.push_back(spec(app, Protocol::WiDir, 16));
    }
    // A couple of off-default configurations too.
    specs.push_back(spec("radix", Protocol::WiDir, 16));
    specs.back().maxWiredSharers = 2;
    specs.push_back(spec("water-spa", Protocol::WiDir, 16));
    specs.back().updateCountThreshold = 8;
    return specs;
}

TEST(SweepRunner, ResolvesJobCount)
{
    EXPECT_GE(SweepRunner(0).jobs(), 1u);
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
}

TEST(SweepRunner, EmptySweep)
{
    SweepRunner runner(4);
    EXPECT_TRUE(runner.run({}).empty());
}

TEST(SweepRunner, ParallelMatchesSerialFieldForField)
{
    auto specs = mixedBatch();
    ASSERT_GE(specs.size(), 8u);

    auto serial = SweepRunner(1).run(specs);
    auto parallel = SweepRunner(4).run(specs);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].app->name);
        // Order preserved: slot i belongs to spec i.
        EXPECT_EQ(serial[i].app, specs[i].app->name);
        EXPECT_EQ(sys::machineJson(serial[i]),
                  sys::machineJson(parallel[i]));
    }
}

TEST(SweepRunner, MoreWorkersThanSpecs)
{
    using coherence::Protocol;
    std::vector<ExperimentSpec> specs = {
        spec("blackscholes", Protocol::WiDir, 16),
        spec("fft", Protocol::BaselineMESI, 16),
    };
    auto serial = SweepRunner(1).run(specs);
    auto wide = SweepRunner(8).run(specs);
    ASSERT_EQ(wide.size(), 2u);
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(sys::machineJson(serial[i]),
                  sys::machineJson(wide[i]));
}

TEST(SweepRunner, RepeatedRunsAreDeterministic)
{
    using coherence::Protocol;
    std::vector<ExperimentSpec> specs = {
        spec("barnes", Protocol::WiDir, 16),
    };
    SweepRunner runner(2);
    auto first = runner.run(specs);
    auto second = runner.run(specs);
    EXPECT_EQ(sys::machineJson(first[0]), sys::machineJson(second[0]));
}

TEST(SweepRunner, WorkerExceptionIsRethrownWithSpecName)
{
    // Regression: an exception escaping a worker thread used to hit
    // std::terminate and kill the whole process with no report. It is
    // now captured, the pool joins, and the calling thread sees the
    // original exception nested under a runtime_error naming the
    // failing spec. Exercised through the run_fn test seam because
    // the production sim reports errors via sim::fatal (which exits),
    // not exceptions.
    using coherence::Protocol;
    std::vector<ExperimentSpec> specs = {
        spec("fft", Protocol::BaselineMESI, 16),
        spec("radiosity", Protocol::WiDir, 16),
        spec("barnes", Protocol::WiDir, 16),
        spec("blackscholes", Protocol::BaselineMESI, 16),
    };
    auto boom = [](const ExperimentSpec &s) -> ExperimentResult {
        if (std::string(s.app->name) == "radiosity")
            throw std::runtime_error("disk full");
        ExperimentResult r;
        r.app = s.app->name;
        return r;
    };

    for (unsigned jobs : {1u, 3u}) {
        SCOPED_TRACE(jobs);
        SweepRunner runner(jobs);
        try {
            runner.run(specs, boom);
            FAIL() << "expected the worker exception to propagate";
        } catch (const std::runtime_error &outer) {
            EXPECT_NE(std::string(outer.what()).find("radiosity"),
                      std::string::npos)
                << outer.what();
            try {
                std::rethrow_if_nested(outer);
                FAIL() << "original exception not nested";
            } catch (const std::runtime_error &inner) {
                EXPECT_STREQ(inner.what(), "disk full");
            }
        }
    }
}

TEST(SweepRunner, CleanRunThroughSeamReturnsAllResults)
{
    using coherence::Protocol;
    std::vector<ExperimentSpec> specs = {
        spec("fft", Protocol::BaselineMESI, 16),
        spec("barnes", Protocol::WiDir, 16),
    };
    SweepRunner runner(2);
    auto results =
        runner.run(specs, [](const ExperimentSpec &s) {
            ExperimentResult r;
            r.app = s.app->name;
            return r;
        });
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].app, "fft");
    EXPECT_EQ(results[1].app, "barnes");
}

TEST(EnvParsing, ParseEnvIntRejectsGarbageAndOverflow)
{
    long v = -1;
    // Accepted: complete decimal integers in range.
    EXPECT_TRUE(sys::parseEnvInt("4", 1, 100, v));
    EXPECT_EQ(v, 4);
    EXPECT_TRUE(sys::parseEnvInt("100", 1, 100, v));
    EXPECT_EQ(v, 100);
    EXPECT_TRUE(sys::parseEnvInt("-3", -10, 10, v));
    EXPECT_EQ(v, -3);

    // Rejected, and v is left untouched.
    v = 42;
    EXPECT_FALSE(sys::parseEnvInt("4abc", 1, 100, v)); // trailing junk
    EXPECT_FALSE(sys::parseEnvInt("4 ", 1, 100, v));   // trailing space
    EXPECT_FALSE(sys::parseEnvInt("abc", 1, 100, v));
    EXPECT_FALSE(sys::parseEnvInt("", 1, 100, v));
    EXPECT_FALSE(sys::parseEnvInt(nullptr, 1, 100, v));
    EXPECT_FALSE(sys::parseEnvInt("0", 1, 100, v));   // below min
    EXPECT_FALSE(sys::parseEnvInt("101", 1, 100, v)); // above max
    // strtol saturates these to LONG_MAX/LONG_MIN with ERANGE; the
    // old code cast the saturated value straight to unsigned.
    EXPECT_FALSE(sys::parseEnvInt("99999999999999999999999", 1,
                                  std::numeric_limits<long>::max(), v));
    EXPECT_FALSE(sys::parseEnvInt("-99999999999999999999999",
                                  std::numeric_limits<long>::min(), 100,
                                  v));
    EXPECT_EQ(v, 42);
}

TEST(EnvParsing, DefaultJobsIgnoresInvalidEnv)
{
    // "4abc" used to parse as 4 jobs; it must now fall back to
    // hardware_concurrency (>= 1) with a warning.
    setenv("WIDIR_BENCH_JOBS", "4abc", 1);
    unsigned garbage_jobs = sys::defaultJobs();
    setenv("WIDIR_BENCH_JOBS", "3", 1);
    unsigned three = sys::defaultJobs();
    unsetenv("WIDIR_BENCH_JOBS");
    unsigned fallback = sys::defaultJobs();

    EXPECT_EQ(three, 3u);
    EXPECT_EQ(garbage_jobs, fallback);
    EXPECT_GE(fallback, 1u);
}

} // namespace
