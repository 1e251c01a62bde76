#include "system/report.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/protocol_table.h"
#include "sim/log.h"

namespace widir::sys {

namespace {

using coherence::protocolName;

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
}

struct ObjectWriter
{
    std::string &out;
    std::string pad;
    bool first = true;

    ObjectWriter(std::string &o, int indent)
        : out(o), pad(static_cast<std::size_t>(indent), ' ')
    {
        out += "{";
    }

    void
    key(const char *k)
    {
        if (!first)
            out += ",";
        first = false;
        out += "\n" + pad + "  ";
        appendEscaped(out, k);
        out += ": ";
    }

    void
    field(const char *k, std::uint64_t v)
    {
        key(k);
        out += sim::strfmt("%" PRIu64, v);
    }

    void
    field(const char *k, double v)
    {
        key(k);
        // JSON has no NaN/Infinity literals; clamp so the document
        // stays parseable by any reader (and by json::parse below).
        if (!std::isfinite(v))
            v = 0.0;
        // %.17g round-trips doubles exactly; trim to readable forms
        // where possible.
        out += sim::strfmt("%.17g", v);
    }

    void
    field(const char *k, const std::string &v)
    {
        key(k);
        appendEscaped(out, v);
    }

    void
    field(const char *k, const std::vector<std::uint64_t> &v)
    {
        key(k);
        out += "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ", ";
            out += sim::strfmt("%" PRIu64, v[i]);
        }
        out += "]";
    }

    void
    close()
    {
        out += "\n" + pad + "}";
    }
};

} // namespace

std::string
resultToJson(const ExperimentResult &r, int indent)
{
    std::string out;
    ObjectWriter w(out, indent);
    w.field("app", r.app);
    w.field("protocol", std::string(protocolName(r.protocol)));
    w.field("cores", static_cast<std::uint64_t>(r.cores));
    w.field("seed", r.seed);
    w.field("scale", static_cast<std::uint64_t>(r.scale));
    w.field("max_wired_sharers",
            static_cast<std::uint64_t>(r.maxWiredSharers));
    w.field("update_count_threshold",
            static_cast<std::uint64_t>(r.updateCountThreshold));
    w.field("cycles", static_cast<std::uint64_t>(r.cycles));
    w.field("instructions", r.instructions);
    w.field("loads", r.loads);
    w.field("stores", r.stores);
    w.field("read_misses", r.readMisses);
    w.field("write_misses", r.writeMisses);
    w.field("mpki", r.mpki());
    w.field("read_mpki", r.readMpki());
    w.field("write_mpki", r.writeMpki());
    w.field("mem_stall_cycles", r.memStallCycles);
    w.field("total_core_cycles", r.totalCoreCycles);
    w.field("mem_stall_fraction", r.memStallFraction());
    w.field("load_latency_sum", r.loadLatencySum);
    w.field("store_latency_sum", r.storeLatencySum);
    w.field("hop_bin_counts", r.hopBinCounts);
    w.field("wired_messages", r.wiredMessages);
    w.field("sharers_updated_bins", r.sharersUpdatedBins);
    w.field("wireless_writes", r.wirelessWrites);
    w.field("self_invalidations", r.selfInvalidations);
    w.field("collision_probability", r.collisionProbability);
    w.field("to_wireless", r.toWireless);
    w.field("to_shared", r.toShared);
    if (r.meshConcentration != 1 || r.wirelessChannels != 1 ||
        r.homeMap != mem::HomeMap::Interleave) {
        // Emitted only when a scale-out topology knob is non-default,
        // so classic-machine sweeps stay byte-identical to documents
        // written before these knobs existed (same contract as the
        // fault block below).
        w.key("topology");
        ObjectWriter t(out, indent + 2);
        t.field("mesh_concentration",
                static_cast<std::uint64_t>(r.meshConcentration));
        t.field("wireless_channels",
                static_cast<std::uint64_t>(r.wirelessChannels));
        t.field("home_map",
                std::string(r.homeMap == mem::HomeMap::Hash
                                ? "hash"
                                : "interleave"));
        t.close();
    }
    // Host-perf block. executed_events is deterministic; the host_*
    // figures describe the host process, not the simulated machine --
    // strip them before byte-diffing two sweeps for identity
    // (docs/PERF.md).
    w.field("executed_events", r.executedEvents);
    w.field("host_wall_seconds", r.hostSeconds);
    w.field("host_events_per_sec", r.hostEventsPerSec);
    if (r.hostSeconds != 0.0) {
        // Phase timings accompany a timed run: zeroing hostSeconds,
        // as every run-to-run comparison does, drops them as well.
        w.field("host_build_seconds", r.hostBuildSeconds);
        w.field("host_check_seconds", r.hostCheckSeconds);
    }
    w.field("host_msgpool_grew", r.hostMsgpoolGrew);
    w.field("host_map_rehashes", r.hostMapRehashes);
    if (r.frontendKind != frontend::FrontendKind::Coroutine) {
        // Emitted only for a non-default stimulus source, so classic
        // sweeps stay byte-identical to documents written before
        // frontends existed (docs/FRONTEND.md).
        w.key("frontend");
        ObjectWriter f(out, indent + 2);
        f.field("kind",
                std::string(frontend::frontendKindName(r.frontendKind)));
        if (!r.recordPath.empty())
            f.field("record_path", r.recordPath);
        if (!r.replayPath.empty())
            f.field("replay_path", r.replayPath);
        f.close();
    }
    if (r.faultInjection) {
        // Emitted only when the fault layer was armed, so clean-run
        // outputs stay byte-identical to documents written before
        // fault injection existed (docs/FAULTS.md).
        w.key("fault");
        ObjectWriter f(out, indent + 2);
        f.field("ber", r.fault.ber);
        f.field("preamble_loss_prob", r.fault.preambleLossProb);
        f.field("tone_loss_prob", r.fault.toneLossProb);
        f.field("burst_ber", r.fault.burstBer);
        f.field("burst_enter_prob", r.fault.burstEnterProb);
        f.field("burst_exit_prob", r.fault.burstExitProb);
        f.field("frame_bits",
                static_cast<std::uint64_t>(r.fault.frameBits));
        f.field("retry_budget",
                static_cast<std::uint64_t>(r.fault.retryBudget));
        f.field("fault_seed", r.fault.seed);
        f.field("frame_crc_errors", r.frameCrcErrors);
        f.field("frame_preamble_losses", r.framePreambleLosses);
        f.field("fault_retries", r.faultRetries);
        f.field("frame_fault_drops", r.frameFaultDrops);
        f.field("tone_retries", r.toneRetries);
        f.field("wireless_fallbacks", r.wirelessFallbacks);
        f.close();
    }
    w.key("energy");
    {
        ObjectWriter e(out, indent + 2);
        e.field("core", r.energy.core);
        e.field("l1", r.energy.l1);
        e.field("l2dir", r.energy.l2dir);
        e.field("noc", r.energy.noc);
        e.field("wnoc", r.energy.wnoc);
        e.field("total", r.energy.total());
        e.close();
    }
    w.close();
    return out;
}

std::string
resultsToJson(const std::string &name,
              const std::vector<ExperimentResult> &results)
{
    std::string out = "{\n  \"schema\": \"widir-sweep-v1\",\n  "
                      "\"name\": ";
    appendEscaped(out, name);
    out += ",\n  \"results\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i)
            out += ",";
        out += "\n    ";
        out += resultToJson(results[i], 4);
    }
    out += results.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

bool
writeResultsJson(const std::string &path, const std::string &name,
                 const std::vector<ExperimentResult> &results)
{
    std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream f(p, std::ios::trunc);
    if (!f) {
        sim::warn("cannot write %s", path.c_str());
        return false;
    }
    f << resultsToJson(name, results);
    return static_cast<bool>(f);
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser (objects, arrays, strings,
// numbers, booleans, null; enough to validate and round-trip the
// writer above).

namespace json {

const Value *
Value::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

std::uint64_t
Value::asUint() const
{
    return (type == Type::Number && isInteger && !negative) ? uinteger
                                                            : 0;
}

namespace {

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = sim::strfmt("%s at offset %zu", what.c_str(), pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return fail(sim::strfmt("expected '%c'", c));
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("dangling escape");
            char esc = text[pos++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // The writer only emits \u00xx control codes; decode
                // the latin-1 subset and reject the rest.
                if (code > 0xff)
                    return fail("unsupported \\u escape");
                out += static_cast<char>(code);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool
    parseNumber(Value &out)
    {
        skipWs();
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected number");
        std::string tok = text.substr(start, pos - start);
        out.type = Value::Type::Number;
        out.number = std::strtod(tok.c_str(), nullptr);
        out.negative = tok[0] == '-';
        out.isInteger =
            tok.find_first_of(".eE") == std::string::npos;
        if (out.isInteger && !out.negative)
            out.uinteger = std::strtoull(tok.c_str(), nullptr, 10);
        return true;
    }

    bool
    parseValue(Value &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            ++pos;
            out.type = Value::Type::Object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return false;
                Value member;
                if (!parseValue(member))
                    return false;
                out.object.emplace(std::move(key), std::move(member));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return consume('}');
            }
        }
        if (c == '[') {
            ++pos;
            out.type = Value::Type::Array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                Value elem;
                if (!parseValue(elem))
                    return false;
                out.array.push_back(std::move(elem));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return consume(']');
            }
        }
        if (c == '"') {
            out.type = Value::Type::String;
            return parseString(out.string);
        }
        if (text.compare(pos, 4, "true") == 0) {
            out.type = Value::Type::Bool;
            out.boolean = true;
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            out.type = Value::Type::Bool;
            out.boolean = false;
            pos += 5;
            return true;
        }
        if (text.compare(pos, 4, "null") == 0) {
            out.type = Value::Type::Null;
            pos += 4;
            return true;
        }
        return parseNumber(out);
    }
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string *err)
{
    // Callers reuse Value holders across parses; parseValue appends
    // members, so a stale tree would silently merge with the new one.
    out = Value{};
    Parser p(text);
    if (!p.parseValue(out)) {
        if (err)
            *err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = sim::strfmt("trailing garbage at offset %zu", p.pos);
        return false;
    }
    return true;
}

} // namespace json

} // namespace widir::sys
