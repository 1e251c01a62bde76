#include "system/report.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

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

using R = ExperimentResult;
using json::Value;

bool
topologySet(const R &r)
{
    return r.meshConcentration != 1 || r.wirelessChannels != 1 ||
           r.homeMap != mem::HomeMap::Interleave;
}

// Phase timings accompany a timed run only: perfbench zeroes
// hostSeconds and compares whole documents across repetitions.
bool timed(const R &r) { return r.hostSeconds != 0.0; }

bool
frontendSet(const R &r)
{
    return r.frontendKind != frontend::FrontendKind::Coroutine;
}

bool recorded(const R &r) { return frontendSet(r) && !r.recordPath.empty(); }
bool replayed(const R &r) { return frontendSet(r) && !r.replayPath.empty(); }
bool faulted(const R &r) { return r.faultInjection; }

// GET(expr): a getter returning Value(expr) of the result `r`.
#define GET(expr) [](const R &r) { return Value(expr); }

// The topology, frontend and fault blocks are written only when their
// knobs are non-default, so classic sweeps stay byte-identical to
// documents written before those knobs existed.
const ReportField kFields[] = {
    {"", "app", false, GET(r.app), nullptr, "workload name"},
    {"", "protocol", false, GET(protocolName(r.protocol)), nullptr,
     "`baseline` (MESI Dir_iB) or `widir`"},
    {"", "cores", false, GET(r.cores), nullptr,
     "tiles (one core + L1 + directory/LLC bank each)"},
    {"", "seed", false, GET(r.seed), nullptr, "RNG seed of the run"},
    {"", "scale", false, GET(r.scale), nullptr, "workload work multiplier"},
    {"", "max_wired_sharers", false, GET(r.maxWiredSharers), nullptr,
     "MaxWiredSharers: wired sharers before a line goes wireless"},
    {"", "update_count_threshold", false, GET(r.updateCountThreshold), nullptr,
     "effective UpdateCount self-invalidation threshold"},
    {"", "cycles", false, GET(r.cycles), nullptr,
     "simulated cycles until every core finished"},
    {"", "instructions", false, GET(r.instructions), nullptr,
     "retired instructions, all cores"},
    {"", "loads", false, GET(r.loads), nullptr, "retired loads"},
    {"", "stores", false, GET(r.stores), nullptr, "retired stores"},
    {"", "read_misses", false, GET(r.readMisses), nullptr,
     "L1 read misses (Fig. 6)"},
    {"", "write_misses", false, GET(r.writeMisses), nullptr,
     "L1 write misses (Fig. 6)"},
    {"", "mpki", false, GET(r.mpki()), nullptr,
     "L1 misses per kilo-instruction"},
    {"", "read_mpki", false, GET(r.readMpki()), nullptr,
     "read misses per kilo-instruction"},
    {"", "write_mpki", false, GET(r.writeMpki()), nullptr,
     "write misses per kilo-instruction"},
    {"", "mem_stall_cycles", false, GET(r.memStallCycles), nullptr,
     "core cycles stalled on memory, summed over cores (Fig. 8)"},
    {"", "total_core_cycles", false, GET(r.totalCoreCycles), nullptr,
     "cycles x cores"},
    {"", "mem_stall_fraction", false, GET(r.memStallFraction()), nullptr,
     "mem_stall_cycles / total_core_cycles"},
    {"", "load_latency_sum", false, GET(r.loadLatencySum), nullptr,
     "summed load latency, ROB entry to retire (Fig. 7)"},
    {"", "store_latency_sum", false, GET(r.storeLatencySum), nullptr,
     "summed store latency, ROB entry to retire (Fig. 7)"},
    {"", "hop_bin_counts", false, GET(r.hopBinCounts), nullptr,
     "wired message legs by hops: 0-2, 3-5, 6-8, 9-11, 12-16 (Table V)"},
    {"", "wired_messages", false, GET(r.wiredMessages), nullptr,
     "messages sent on the wired mesh"},
    {"", "sharers_updated_bins", false, GET(r.sharersUpdatedBins), nullptr,
     "wireless updates by sharers reached: <=5, 6-10, 11-25, 26-49, 50+"
     " (Fig. 5)"},
    {"", "wireless_writes", false, GET(r.wirelessWrites), nullptr,
     "committed wireless updates"},
    {"", "self_invalidations", false, GET(r.selfInvalidations), nullptr,
     "W-state copies dropped on UpdateCount expiry"},
    {"", "collision_probability", false, GET(r.collisionProbability), nullptr,
     "data-channel collision probability (Table VI)"},
    {"", "to_wireless", false, GET(r.toWireless), nullptr,
     "directory S -> W transitions"},
    {"", "to_shared", false, GET(r.toShared), nullptr,
     "directory W -> S transitions"},
    {"topology", "mesh_concentration", false,
     GET(r.meshConcentration), topologySet,
     "tiles per mesh router"},
    {"topology", "wireless_channels", false,
     GET(r.wirelessChannels), topologySet,
     "frequency-multiplexed wireless data sub-channels"},
    {"topology", "home_map", false,
     GET(r.homeMap == mem::HomeMap::Hash ? "hash" : "interleave"), topologySet,
     "directory home of a line: `interleave` or `hash`"},
    {"", "executed_events", false, GET(r.executedEvents), nullptr,
     "events the kernel ran"},
    {"", "host_wall_seconds", true, GET(r.hostSeconds), nullptr,
     "wall time of the run phase"},
    {"", "host_events_per_sec", true, GET(r.hostEventsPerSec), nullptr,
     "executed_events / host_wall_seconds"},
    {"", "host_build_seconds", true, GET(r.hostBuildSeconds), timed,
     "wall time of building the machine"},
    {"", "host_check_seconds", true, GET(r.hostCheckSeconds), timed,
     "wall time of the end-of-run coherence check"},
    {"", "host_msgpool_grew", true, GET(r.hostMsgpoolGrew), nullptr,
     "fabric message-pool slots grown past the reserve"},
    {"", "host_map_rehashes", true, GET(r.hostMapRehashes), nullptr,
     "FlatAddrMap index allocations (first insert + one per doubling)"},
    {"frontend", "kind", true,
     GET(frontendKindName(r.frontendKind)), frontendSet,
     "stimulus source: `record` or `replay-full`"},
    {"frontend", "record_path", true, GET(r.recordPath), recorded,
     "widir-mtrace-v1 file written"},
    {"frontend", "replay_path", true, GET(r.replayPath), replayed,
     "trace file replayed"},
    {"fault", "ber", false, GET(r.fault.ber), faulted,
     "data-channel bit error rate (good state)"},
    {"fault", "preamble_loss_prob", false,
     GET(r.fault.preambleLossProb), faulted,
     "probability a lone acquisition loses its preamble"},
    {"fault", "tone_loss_prob", false, GET(r.fault.toneLossProb), faulted,
     "probability a census initiator misses the silence tone"},
    {"fault", "burst_ber", false, GET(r.fault.burstBer), faulted,
     "bit error rate in the Gilbert-Elliott bad state"},
    {"fault", "burst_enter_prob", false, GET(r.fault.burstEnterProb), faulted,
     "good -> bad, per sampled frame"},
    {"fault", "burst_exit_prob", false, GET(r.fault.burstExitProb), faulted,
     "bad -> good, per sampled frame"},
    {"fault", "frame_bits", false, GET(r.fault.frameBits), faulted,
     "bits protected by the frame CRC"},
    {"fault", "fault_seed", false, GET(r.fault.seed), faulted,
     "fault RNG stream perturbation"},
    {"fault", "frame_crc_errors", false, GET(r.frameCrcErrors), faulted,
     "corrupted data frames"},
    {"fault", "frame_preamble_losses", false,
     GET(r.framePreambleLosses), faulted,
     "undetected frame starts"},
    {"fault", "fault_retries", false, GET(r.faultRetries), faulted,
     "frame re-transmissions after a fault"},
    {"fault", "tone_retries", false, GET(r.toneRetries), faulted,
     "tone-channel re-polls after a missed silence"},
    {"energy", "core", false, GET(r.energy.core), nullptr,
     "core energy, pJ (Fig. 9)"},
    {"energy", "l1", false, GET(r.energy.l1), nullptr, "L1 energy, pJ"},
    {"energy", "l2dir", false, GET(r.energy.l2dir), nullptr,
     "LLC and directory energy, pJ"},
    {"energy", "noc", false, GET(r.energy.noc), nullptr,
     "wired mesh energy, pJ"},
    {"energy", "wnoc", false, GET(r.energy.wnoc), nullptr,
     "wireless NoC energy, pJ"},
    {"energy", "total", false, GET(r.energy.total()), nullptr,
     "sum of the five components, pJ"},
};

#undef GET

/** Append a key at one level of the object being written. */
void
appendKey(std::string &out, const std::string &pad, bool &first,
          const char *key)
{
    if (!first)
        out += ",";
    first = false;
    out += "\n" + pad + "  ";
    appendEscaped(out, key);
    out += ": ";
}

/** Append a getter's value: a number, a string or a number list. */
void
appendValue(std::string &out, const Value &v)
{
    if (v.isString()) {
        appendEscaped(out, v.string);
    } else if (v.isArray()) {
        out += "[";
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i)
                out += ", ";
            appendValue(out, v.array[i]);
        }
        out += "]";
    } else if (v.isInteger) {
        out += sim::strfmt("%" PRIu64, v.uinteger);
    } else {
        // %.17g round-trips doubles exactly.
        out += sim::strfmt("%.17g", v.number);
    }
}

/** The result object at @p indent, host rows included or not. */
std::string
writeObject(const R &r, int indent, bool with_host)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string inner = pad + "  ";
    std::string out = "{";
    std::string_view open; // the block whose object is open
    bool first = true;
    bool first_in_block = true;
    for (const ReportField &f : kFields) {
        if (!open.empty() && open != f.block) {
            out += "\n" + inner + "}";
            open = {};
        }
        if ((f.host && !with_host) || !f.written(r))
            continue;
        if (*f.block != '\0' && open.empty()) {
            appendKey(out, pad, first, f.block);
            out += "{";
            open = f.block;
            first_in_block = true;
        }
        if (open.empty())
            appendKey(out, pad, first, f.name);
        else
            appendKey(out, inner, first_in_block, f.name);
        appendValue(out, f.get(r));
    }
    if (!open.empty())
        out += "\n" + inner + "}";
    out += "\n" + pad + "}";
    return out;
}

} // namespace

const json::Value *
ReportField::lookup(const json::Value &result) const
{
    const json::Value *obj = *block != '\0' ? result.find(block) : &result;
    return obj != nullptr ? obj->find(name) : nullptr;
}

std::span<const ReportField>
reportFields()
{
    return kFields;
}

std::string
resultToJson(const ExperimentResult &r, int indent)
{
    return writeObject(r, indent, true);
}

std::string
machineJson(const ExperimentResult &r)
{
    return writeObject(r, 0, false);
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

Value::Value(double v)
    : type(Type::Number), number(std::isfinite(v) ? v : 0.0)
{
}

Value::Value(std::string s) : type(Type::String), string(std::move(s)) {}

Value::Value(const std::vector<std::uint64_t> &v)
    : type(Type::Array), array(v.begin(), v.end())
{
}

bool
Value::operator==(const Value &o) const
{
    if (type != o.type)
        return false;
    if (type == Type::Number)
        return isInteger && o.isInteger && !negative && !o.negative
            ? uinteger == o.uinteger
            : number == o.number;
    // Members a type does not use stay default-constructed.
    return boolean == o.boolean && string == o.string &&
           array == o.array && object == o.object;
}

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
