/**
 * @file
 * The paper's evaluation as one table. figures() holds one row per
 * table, figure or sensitivity sweep; every row is an apps x
 * protocols x tiles sweep with at most one varied knob, and names its
 * per-app columns and its summary columns as functions of the
 * results. bench/CMakeLists.txt links this file into one executable
 * per row name (table4_app_mpki, fig8_exec_time, ...), and main()
 * runs the row named by argv[0].
 *
 * A run queues every spec (in the row's order: the JSON, record and
 * trace file names carry the spec index), runs them on
 * sys::SweepRunner, prints the per-app blocks, the summary table
 * (one line per tile count and knob value) and the paper's value,
 * and writes every result to <WIDIR_BENCH_OUT>/<name>.json
 * (widir-sweep-v1, src/system/report.h). The command line is
 * bench::Options (bench/common.h): --tiles replaces a row's tile
 * list, --ber the BER knob's values and WIDIR_BENCH_APPS its apps.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common.h"

namespace widir::bench {
namespace {

/**
 * A metric's value at one point, num / den. A plain value has den 1;
 * a share keeps its parts so the Pooled summary can divide the sums.
 * A NaN value marks an app that has no value for the metric.
 */
struct Ratio
{
    double num;
    double den = 1.0;
};

double
value(Ratio r)
{
    return r.den != 0.0 ? r.num / r.den : 0.0;
}

/** How a summary column combines the per-app values. */
enum class Agg
{
    Mean,    ///< arithmetic mean of num / den
    Geomean, ///< geometric mean of num / den
    Pooled,  ///< sum of num over sum of den
    Sum,     ///< sum of num
};

/** One app's runs at one tile count and knob value. */
struct Point
{
    const AppInfo *app = nullptr;
    /** The point this one is normalised to (knob reference row, else
     *  the first tile count). */
    const Point *ref = nullptr;
    const std::vector<ExperimentResult> *results = nullptr;
    std::size_t slot[2] = {SIZE_MAX, SIZE_MAX}; ///< Baseline, WiDir

    const ExperimentResult &base() const { return results->at(slot[0]); }
    const ExperimentResult &widir() const { return results->at(slot[1]); }
};

using Metric = Ratio (*)(const Point &);

struct Column
{
    const char *head;
    const char *fmt; ///< printf format of one value, e.g. "%.3f"
    Metric metric;
    Agg agg = Agg::Mean; ///< summary columns only
};

/** The one varied machine knob of a row and its values. */
struct Knob
{
    const char *name = nullptr; ///< null: the row varies no knob
    const char *fmt = "%.0f";
    void (*apply)(ExperimentSpec &, double) = nullptr;
    std::vector<double> values;
    /**
     * When non-empty, a reference row run with these protocols at
     * knob value @c ref is queued before the values and not printed
     * (Table VI's Baseline); otherwise values[0] is the reference.
     */
    std::vector<Protocol> refProtocols = {};
    double ref = 0.0;
};

struct Figure
{
    const char *name; ///< executable and JSON name
    const char *ref;  ///< where in the paper
    const char *title;
    const char *apps = nullptr; ///< default app list; null: every app
    std::vector<Protocol> protocols;
    std::vector<std::uint32_t> tiles = {64};
    Knob knob = {};
    /** Queue (and print) every knob value per app, not every app per
     *  knob value. */
    bool appsOuter = false;
    std::uint32_t scale = 4; ///< default WIDIR_BENCH_SCALE
    std::vector<Column> cells = {};   ///< per app
    std::vector<Column> summary = {}; ///< per tile count and knob value
    const char *definition; ///< one line defining the metrics
    const char *paper;      ///< the paper's value
    bool printsRss = false; ///< end with host_peak_rss_kb (perf_check)
};

constexpr Protocol kBase = Protocol::BaselineMESI;
constexpr Protocol kWiDir = Protocol::WiDir;
using R = ExperimentResult;

double
u(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** @p a normalised to @p b; 1 when @p b has nothing to compare. */
Ratio
norm(double a, double b)
{
    return b > 0.0 ? Ratio{a, b} : Ratio{1.0};
}

/** @p F (a result field, accessor or function) of one run. */
template <bool WiDir, auto F>
Ratio
field(const Point &p)
{
    return {static_cast<double>(std::invoke(F, WiDir ? p.widir()
                                                     : p.base()))};
}

/** @p F of the WiDir run normalised to @p F of the Baseline run. */
template <auto F>
Ratio
normed(const Point &p)
{
    return norm(static_cast<double>(std::invoke(F, p.widir())),
                static_cast<double>(std::invoke(F, p.base())));
}

/** Speedup of one run over the reference point's Baseline. */
template <bool WiDir>
Ratio
speedup(const Point &p)
{
    return {u(p.ref->base().cycles),
            u((WiDir ? p.widir() : p.base()).cycles)};
}

double
memLatency(const R &r)
{
    return u(r.loadLatencySum + r.storeLatencySum);
}

double
energyTotal(const R &r)
{
    return r.energy.total();
}

/** Percentage share of one energy component in a run's total. */
template <bool WiDir, double energy::EnergyBreakdown::*Part>
Ratio
energyShare(const Point &p)
{
    const auto &e = (WiDir ? p.widir() : p.base()).energy;
    return {100.0 * (e.*Part), e.total()};
}

/** Percentage share of bin @p B in a histogram. */
template <std::size_t B>
Ratio
binShare(const std::vector<std::uint64_t> &bins)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : bins)
        total += c;
    return {100.0 * u(B < bins.size() ? bins[B] : 0), u(total)};
}

template <std::size_t B>
Ratio
updateShare(const Point &p)
{
    return binShare<B>(p.widir().sharersUpdatedBins);
}

template <std::size_t B>
Ratio
hopShare(const Point &p)
{
    return binShare<B>(p.base().hopBinCounts);
}

/** Sharers a WiDir update reaches: Fig. 5 bin midpoints, weighted. */
Ratio
updatedSharers(const Point &p)
{
    static const double mid[5] = {3, 8, 18, 37, 56};
    const auto &bins = p.widir().sharersUpdatedBins;
    double weighted = 0.0, updates = 0.0;
    for (std::size_t b = 0; b < bins.size() && b < 5; ++b) {
        weighted += mid[b] * u(bins[b]);
        updates += u(bins[b]);
    }
    return {weighted, updates};
}

/** Read share of the Baseline's L1 misses, in percent. */
Ratio
rereadPct(const Point &p)
{
    const auto &r = p.base();
    std::uint64_t misses = r.readMisses + r.writeMisses;
    return {100.0 * (misses ? u(r.readMisses) / u(misses) : 0.0)};
}

/** Apps without wireless updates have no Section II-C value. */
template <Metric M>
Ratio
ifUpdated(const Point &p)
{
    return value(updatedSharers(p)) > 0.0 ? M(p) : Ratio{NAN};
}

void
setMaxWiredSharers(ExperimentSpec &spec, double v)
{
    spec.maxWiredSharers = static_cast<std::uint32_t>(v);
}

void
setUpdateCount(ExperimentSpec &spec, double v)
{
    spec.updateCountThreshold = static_cast<std::uint32_t>(v);
}

void
setBer(ExperimentSpec &spec, double v)
{
    spec.fault.ber = v;
}

using energy::EnergyBreakdown;

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = {
        {.name = "table4_app_mpki",
         .ref = "Table IV",
         .title = "Table IV: application L1 MPKI under Baseline",
         .protocols = {kBase},
         .cells = {{"mpki(sim)", "%.2f", field<false, &R::mpki>},
                   {"mpki(ppr)", "%.2f",
                    [](const Point &p) { return Ratio{p.app->paperMpki}; }},
                   {"cycles", "%.0f", field<false, &R::cycles>}},
         .definition = "mpki: L1 misses per kilo-instruction of each "
                       "application under Baseline",
         .paper = "the mpki(ppr) column, 0.13 to 23.21"},

        {.name = "motivation_sharing",
         .ref = "Section II-C",
         .title = "Section II-C motivation: sharer accumulation & "
                  "re-reads",
         .protocols = {kWiDir, kBase},
         .cells = {{"avg sharers (upd)", "%.1f", updatedSharers},
                   {"re-read fraction", "%.1f%%", rereadPct}},
         .summary = {{"sharers", "%.1f", ifUpdated<updatedSharers>},
                     {"re-read", "%.0f%%", ifUpdated<rereadPct>}},
         .definition = "sharers: sharers a write would update if writes "
                       "updated rather than invalidated (WiDir's W "
                       "state, Fig. 5 bin midpoints); re-read: share of "
                       "Baseline L1 misses that are reads; means over "
                       "the apps with wireless updates",
         .paper = "~21 sharers, ~56% re-read"},

        {.name = "fig5_sharer_histogram",
         .ref = "Figure 5",
         .title = "Fig. 5: sharers updated per wireless write (WiDir)",
         .protocols = {kWiDir},
         .cells = {{"<=5", "%.1f%%", updateShare<0>},
                   {"6-10", "%.1f%%", updateShare<1>},
                   {"11-25", "%.1f%%", updateShare<2>},
                   {"26-49", "%.1f%%", updateShare<3>},
                   {"50+", "%.1f%%", updateShare<4>},
                   {"updates", "%.0f",
                    [](const Point &p) {
                        return Ratio{updateShare<0>(p).den};
                    }}},
         .summary = {{"<=5", "%.1f%%", updateShare<0>, Agg::Pooled},
                     {"6-10", "%.1f%%", updateShare<1>, Agg::Pooled},
                     {"11-25", "%.1f%%", updateShare<2>, Agg::Pooled},
                     {"26-49", "%.1f%%", updateShare<3>, Agg::Pooled},
                     {"50+", "%.1f%%", updateShare<4>, Agg::Pooled}},
         .definition = "share of wireless writes by the number of sharers "
                       "each one updates; summary: pooled over apps",
         .paper = "<=5 ~36%, 50+ ~37%"},

        {.name = "fig6_mpki",
         .ref = "Figure 6",
         .title = "Fig. 6: normalized MPKI (read + write), WiDir vs "
                  "Baseline",
         .protocols = {kBase, kWiDir},
         .cells = {{"base.rd", "%.2f", field<false, &R::readMpki>},
                   {"base.wr", "%.2f", field<false, &R::writeMpki>},
                   {"widir.rd", "%.2f", field<true, &R::readMpki>},
                   {"widir.wr", "%.2f", field<true, &R::writeMpki>},
                   {"norm.total", "%.3f", normed<&R::mpki>}},
         .summary = {{"norm.total", "%.3f", normed<&R::mpki>}},
         .definition = "norm.total: L1 misses per kilo-instruction of "
                       "WiDir normalized to Baseline; summary: mean over "
                       "apps",
         .paper = "~0.85, i.e. 15% lower than Baseline"},

        {.name = "fig7_mem_latency",
         .ref = "Figure 7",
         .title = "Fig. 7: normalized total memory-op latency "
                  "(loads+stores)",
         .protocols = {kBase, kWiDir},
         .cells = {{"base.ld", "%.0f", field<false, &R::loadLatencySum>},
                   {"base.st", "%.0f", field<false, &R::storeLatencySum>},
                   {"widir.ld", "%.0f", field<true, &R::loadLatencySum>},
                   {"widir.st", "%.0f", field<true, &R::storeLatencySum>},
                   {"norm", "%.3f", normed<memLatency>}},
         .summary = {{"norm", "%.3f", normed<memLatency>}},
         .definition = "norm: total latency of memory operations, "
                       "sum(load + store latency) from ROB entry to "
                       "retirement, of WiDir normalized to Baseline; "
                       "summary: mean over apps",
         .paper = "~0.65, i.e. 35% lower"},

        {.name = "table5_hops",
         .ref = "Table V",
         .title = "Table V: wired hops per message leg (Baseline)",
         .protocols = {kBase},
         .cells = {{"0-2", "%.1f%%", hopShare<0>},
                   {"3-5", "%.1f%%", hopShare<1>},
                   {"6-8", "%.1f%%", hopShare<2>},
                   {"9-11", "%.1f%%", hopShare<3>},
                   {"12-16", "%.1f%%", hopShare<4>},
                   {"messages", "%.0f",
                    [](const Point &p) { return Ratio{hopShare<0>(p).den}; }}},
         .summary = {{"0-2", "%.1f%%", hopShare<0>, Agg::Pooled},
                     {"3-5", "%.1f%%", hopShare<1>, Agg::Pooled},
                     {"6-8", "%.1f%%", hopShare<2>, Agg::Pooled},
                     {"9-11", "%.1f%%", hopShare<3>, Agg::Pooled},
                     {"12-16", "%.1f%%", hopShare<4>, Agg::Pooled}},
         .definition = "share of wired message legs by the number of "
                       "mesh hops they travel; summary: pooled over apps",
         .paper = "17% / 22% / 31% / 21% / 9%"},

        {.name = "fig8_exec_time",
         .ref = "Figure 8 (a,b,c)",
         .title = "Fig. 8: normalized execution time (memory stall + "
                  "rest)",
         .protocols = {kBase, kWiDir},
         .tiles = {64, 32, 16},
         .cells = {{"base.cyc", "%.0f", field<false, &R::cycles>},
                   {"base.stall", "%.1f%%",
                    [](const Point &p) {
                        return Ratio{100.0 * p.base().memStallFraction()};
                    }},
                   {"widir.cyc", "%.0f", field<true, &R::cycles>},
                   {"widir.stall", "%.1f%%",
                    [](const Point &p) {
                        return Ratio{100.0 * p.widir().memStallFraction()};
                    }},
                   {"norm", "%.3f", normed<&R::cycles>}},
         .summary = {{"norm", "%.3f", normed<&R::cycles>}},
         .definition = "norm: execution time of WiDir normalized to "
                       "Baseline; stall: share of cycles retirement "
                       "waits on a memory operation; summary: mean over "
                       "apps",
         .paper = "0.78 at 64, 0.89 at 32, 0.96 at 16 cores"},

        {.name = "fig9_energy",
         .ref = "Figure 9",
         .title = "Fig. 9: normalized energy breakdown",
         .protocols = {kBase, kWiDir},
         .cells = {{"base.co", "%.1f%%",
                    energyShare<false, &EnergyBreakdown::core>},
                   {"base.l1", "%.1f%%",
                    energyShare<false, &EnergyBreakdown::l1>},
                   {"base.l2", "%.1f%%",
                    energyShare<false, &EnergyBreakdown::l2dir>},
                   {"base.noc", "%.1f%%",
                    energyShare<false, &EnergyBreakdown::noc>},
                   {"widir.co", "%.1f%%",
                    energyShare<true, &EnergyBreakdown::core>},
                   {"widir.l1", "%.1f%%",
                    energyShare<true, &EnergyBreakdown::l1>},
                   {"widir.l2", "%.1f%%",
                    energyShare<true, &EnergyBreakdown::l2dir>},
                   {"widir.noc", "%.1f%%",
                    energyShare<true, &EnergyBreakdown::noc>},
                   {"widir.wnoc", "%.1f%%",
                    energyShare<true, &EnergyBreakdown::wnoc>},
                   {"norm", "%.3f", normed<energyTotal>}},
         .summary = {{"norm", "%.3f", normed<energyTotal>},
                     {"base.co", "%.0f%%",
                      energyShare<false, &EnergyBreakdown::core>},
                     {"base.l1", "%.0f%%",
                      energyShare<false, &EnergyBreakdown::l1>},
                     {"base.l2", "%.0f%%",
                      energyShare<false, &EnergyBreakdown::l2dir>},
                     {"base.noc", "%.0f%%",
                      energyShare<false, &EnergyBreakdown::noc>},
                     {"widir.wnoc", "%.1f%%",
                      energyShare<true, &EnergyBreakdown::wnoc>}},
         .definition = "norm: energy of WiDir normalized to Baseline; "
                       "co/l1/l2/noc/wnoc: share of the core, L1, "
                       "L2+directory, wired NoC and WNoC in each "
                       "protocol's energy; summary: mean over apps",
         .paper = "~0.79; Baseline shares ~60/5/20/15%; WNoC ~5.9% of "
                  "WiDir"},

        {.name = "fig10_scalability",
         .ref = "Figure 10",
         .title = "Fig. 10: speedup over the Baseline at the first tile "
                  "count",
         .protocols = {kBase, kWiDir},
         .tiles = {4, 16, 32, 64},
         .summary = {{"baseline", "%.2f", speedup<false>, Agg::Geomean},
                     {"widir", "%.2f", speedup<true>, Agg::Geomean}},
         .definition = "speedup: execution time of the app's Baseline at "
                       "the first tile count over this run's; summary: "
                       "geomean over apps",
         .paper = "curves overlap through 16 cores, then WiDir pulls "
                  "ahead at 32-64",
         .printsRss = true},

        {.name = "table6_sensitivity",
         .ref = "Table VI",
         .title = "Table VI: MaxWiredSharers sensitivity",
         .protocols = {kWiDir},
         .knob = {.name = "MaxWiredSharers",
                  .apply = setMaxWiredSharers,
                  .values = {2, 3, 4, 5},
                  .refProtocols = {kBase},
                  .ref = 3},
         .summary = {{"speedup", "%.2fx", speedup<true>, Agg::Geomean},
                     {"coll.prob", "%.2f%%",
                      [](const Point &p) {
                          return Ratio{100.0 *
                                       p.widir().collisionProbability};
                      }}},
         .definition = "speedup: execution time of Baseline over WiDir, "
                       "geomean over apps; coll.prob: wireless collision "
                       "probability, mean over apps",
         .paper = "1.22x/6.93%, 1.43x/3.14%, 1.38x/2.24%, 1.31x/1.70% "
                  "for 2/3/4/5"},

        {.name = "ablation_update_count",
         .ref = "Section III-B2 design choice",
         .title = "Ablation: UpdateCount self-invalidation threshold",
         .apps = "radiosity,barnes,canneal,ocean-nc,raytrace",
         .protocols = {kWiDir},
         .knob = {.name = "UpdateCount",
                  .apply = setUpdateCount,
                  .values = {2, 3, 4, 8, 16}},
         .appsOuter = true,
         .scale = 2,
         .cells = {{"cycles", "%.0f", field<true, &R::cycles>},
                   {"self-inv", "%.0f", field<true, &R::selfInvalidations>},
                   {"wir.upd", "%.0f", field<true, &R::wirelessWrites>},
                   {"W->S", "%.0f", field<true, &R::toShared>}},
         .definition = "UpdateCount: wireless updates a passive sharer "
                       "sees before it self-invalidates",
         .paper = "a 2-bit counter; expected: self-invalidations fall "
                  "monotonically with the threshold, execution time is "
                  "flattest around the paper's counter"},

        {.name = "sensitivity_ber",
         .ref = "the Section V-A error-free-channel assumption",
         .title = "BER sensitivity: WiDir under wireless fault injection",
         .protocols = {kWiDir},
         .knob = {.name = "BER",
                  .fmt = "%.1e",
                  .apply = setBer,
                  .values = {0, 1e-6, 1e-5, 1e-4, 1e-3}},
         .scale = 2,
         .summary = {{"norm.time", "%.3f",
                      [](const Point &p) {
                          return norm(u(p.widir().cycles),
                                      u(p.ref->widir().cycles));
                      },
                      Agg::Geomean},
                     {"crcErrors", "%.0f", field<true, &R::frameCrcErrors>,
                      Agg::Sum},
                     {"retries", "%.0f", field<true, &R::faultRetries>,
                      Agg::Sum},
                     {"toneRetry", "%.0f", field<true, &R::toneRetries>,
                      Agg::Sum}},
         .definition = "norm.time: execution time of WiDir normalized per "
                       "app to the BER=0 row, geomean over apps; the "
                       "resilience counters are summed over apps",
         .paper = "not evaluated; the paper assumes a raw BER of 1e-15, "
                  "error-free at on-chip frame sizes"},
    };
    return table;
}

double
aggregate(const Column &c, const std::vector<const Point *> &points)
{
    double num = 0.0, den = 0.0, sum = 0.0, logs = 0.0;
    std::size_t n = 0;
    for (const Point *p : points) {
        Ratio r = c.metric(*p);
        double v = value(r);
        if (std::isnan(v))
            continue;
        num += r.num;
        den += r.den;
        sum += v;
        logs += std::log(v);
        ++n;
    }
    switch (c.agg) {
    case Agg::Mean:
        return n ? sum / static_cast<double>(n) : 0.0;
    case Agg::Geomean:
        return n ? std::exp(logs / static_cast<double>(n)) : 0.0;
    case Agg::Pooled:
        return den != 0.0 ? num / den : 0.0;
    case Agg::Sum:
        return num;
    }
    return 0.0;
}

std::string
format(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

using Row = std::vector<std::string>;

/** Print rows as aligned columns: the first left, the rest right. */
void
printRows(const std::vector<Row> &rows)
{
    std::vector<std::size_t> width(rows.front().size(), 0);
    for (const Row &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    for (const Row &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf(c ? "  %*s" : "%-*s", static_cast<int>(width[c]),
                        row[c].c_str());
        std::printf("\n");
    }
}

/**
 * Peak resident set of this process in KiB (Linux VmHWM), 0 when
 * unknown. Printed as `host_peak_rss_kb N` so tools/perf_check.sh
 * --rss can gate footprint growth without GNU time (docs/PERF.md). A
 * host-side figure like the host_* JSON fields.
 */
std::uint64_t
hostPeakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    unsigned long long kb = 0;
    char line[128];
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %llu", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

int
run(const Figure &fig, int argc, char **argv)
{
    std::uint32_t scale = sys::benchScale(fig.scale);
    Options opt(fig.name, argc, argv);
    std::vector<const AppInfo *> apps = benchApps(fig.apps);
    std::vector<std::uint32_t> tiles =
        opt.tilesList().empty() ? fig.tiles : opt.tilesList();

    // Knob rows: the unprinted reference row, if any, then the values
    // (--ber replaces the BER values after the BER=0 reference).
    const Knob &knob = fig.knob;
    std::vector<double> values = knob.values;
    if (knob.apply == setBer && !opt.berList().empty()) {
        values.resize(1);
        values.insert(values.end(), opt.berList().begin(),
                      opt.berList().end());
    }
    if (values.empty())
        values.push_back(0.0);
    std::size_t hidden = knob.refProtocols.empty() ? 0 : 1;
    if (hidden)
        values.insert(values.begin(), knob.ref);

    const std::size_t T = tiles.size(), K = values.size(),
                      A = apps.size();
    std::vector<Point> points(T * K * A);
    auto at = [&](std::size_t t, std::size_t k, std::size_t a) -> Point & {
        return points[(t * K + k) * A + a];
    };
    std::vector<ExperimentSpec> specs;
    std::vector<ExperimentResult> results;
    auto queue = [&](std::size_t t, std::size_t k, std::size_t a) {
        Point &p = at(t, k, a);
        p.app = apps[a];
        p.ref = &at(knob.apply ? t : 0, 0, a);
        p.results = &results;
        for (Protocol proto :
             k < hidden ? knob.refProtocols : fig.protocols) {
            ExperimentSpec spec;
            spec.app = apps[a];
            spec.protocol = proto;
            spec.cores = tiles[t];
            spec.scale = scale;
            spec.fault = opt.fault();
            if (knob.apply)
                knob.apply(spec, values[k]);
            opt.apply(spec, specs.size());
            p.slot[proto == kWiDir] = specs.size();
            specs.push_back(std::move(spec));
        }
    };
    for (std::size_t t = 0; t < T; ++t)
        for (std::size_t o = 0; o < (fig.appsOuter ? A : K); ++o)
            for (std::size_t i = 0; i < (fig.appsOuter ? K : A); ++i)
                fig.appsOuter ? queue(t, i, o) : queue(t, o, i);

    results = sys::SweepRunner(opt.jobs()).run(specs);
    if (opt.traceOn())
        std::printf("[%zu Chrome traces -> %s/%s.*.trace.json]\n",
                    specs.size(), benchOutDir().c_str(), fig.name);

    std::printf("==============================================="
                "=====================\n");
    std::printf("%s\n  (reproduces %s of the WiDir paper, HPCA 2021)\n",
                fig.title, fig.ref);
    std::printf("==============================================="
                "=====================\n");

    auto tileLabel = [&](std::size_t t) {
        return T > 1 ? std::to_string(tiles[t]) + " cores" : "";
    };
    auto groupLabel = [&](std::size_t t, std::size_t k) {
        std::string s = tileLabel(t);
        if (knob.apply)
            s += (s.empty() ? "" : ", ") + std::string(knob.name) + " " +
                 format(knob.fmt, values[k]);
        return s.empty() ? std::string("all apps") : s;
    };

    // Per-app blocks, nested as queued: one block per tile count and
    // knob value listing the apps, or (appsOuter) per app listing the
    // knob values.
    if (!fig.cells.empty()) {
        const std::size_t outer = fig.appsOuter ? A : K - hidden;
        const std::size_t inner = fig.appsOuter ? K - hidden : A;
        for (std::size_t t = 0; t < T; ++t) {
            for (std::size_t o = 0; o < outer; ++o) {
                std::vector<Row> rows{{fig.appsOuter ? knob.name : "app"}};
                for (const Column &c : fig.cells)
                    rows[0].push_back(c.head);
                for (std::size_t i = 0; i < inner; ++i) {
                    const Point &p = fig.appsOuter
                        ? at(t, hidden + i, o)
                        : at(t, hidden + o, i);
                    rows.push_back({fig.appsOuter
                                        ? format(knob.fmt, values[hidden + i])
                                        : p.app->name});
                    for (const Column &c : fig.cells)
                        rows.back().push_back(
                            format(c.fmt, value(c.metric(p))));
                }
                if (T * outer > 1) {
                    std::string head = fig.appsOuter
                        ? apps[o]->name + (T > 1 ? ", " + tileLabel(t) : "")
                        : groupLabel(t, hidden + o);
                    std::printf("\n--- %s ---\n", head.c_str());
                }
                printRows(rows);
            }
        }
        std::printf("---\n");
    }

    // Summary: one line per tile count and knob value, over the apps.
    if (!fig.summary.empty()) {
        std::vector<Row> rows{{""}};
        for (const Column &c : fig.summary)
            rows[0].push_back(c.head);
        for (std::size_t t = 0; t < T; ++t) {
            for (std::size_t k = hidden; k < K; ++k) {
                std::vector<const Point *> group;
                for (std::size_t a = 0; a < A; ++a)
                    group.push_back(&at(t, k, a));
                rows.push_back({groupLabel(t, k)});
                for (const Column &c : fig.summary)
                    rows.back().push_back(format(c.fmt, aggregate(c, group)));
            }
        }
        printRows(rows);
    }
    std::printf("%s\n(paper: %s)\n", fig.definition, fig.paper);

    std::string path = benchOutDir() + "/" + fig.name + ".json";
    if (sys::writeResultsJson(path, fig.name, results))
        std::printf("[%zu results -> %s]\n", results.size(), path.c_str());
    if (fig.printsRss)
        std::printf("host_peak_rss_kb %llu\n",
                    static_cast<unsigned long long>(hostPeakRssKb()));
    return 0;
}

} // namespace
} // namespace widir::bench

int
main(int argc, char **argv)
{
    const char *self = std::strrchr(argv[0], '/');
    self = self ? self + 1 : argv[0];
    for (const auto &fig : widir::bench::figures())
        if (!std::strcmp(fig.name, self))
            return widir::bench::run(fig, argc, argv);
    std::fprintf(stderr, "%s: not a figure; the figure binaries are",
                 self);
    for (const auto &fig : widir::bench::figures())
        std::fprintf(stderr, " %s", fig.name);
    std::fprintf(stderr, "\n");
    return 2;
}
