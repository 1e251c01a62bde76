#include "system/trace_sinks.h"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <fstream>

#include "core/directory_controller.h"
#include "core/l1_controller.h"
#include "sim/log.h"

namespace widir::sys {

namespace {

void
appendEscaped(std::string &out, const char *s)
{
    out += '"';
    for (; *s; ++s) {
        char c = *s;
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

/** Chrome event name: the most specific label the record carries. */
std::string
eventName(const sim::TraceRecord &r)
{
    switch (r.kind) {
      case sim::TraceKind::MsgSend:
      case sim::TraceKind::MsgRecv:
      case sim::TraceKind::CoreOp:
        return r.opName ? r.opName : sim::traceKindName(r.kind);
      case sim::TraceKind::L1Transition:
      case sim::TraceKind::DirTransition:
        return sim::strfmt("%s->%s", r.fromName ? r.fromName : "?",
                           r.toName ? r.toName : "?");
      case sim::TraceKind::MshrAlloc:
      case sim::TraceKind::MshrRetire:
      case sim::TraceKind::DirTxnBegin:
      case sim::TraceKind::DirTxnEnd:
      case sim::TraceKind::FrameQueued:
      case sim::TraceKind::FrameWin:
      case sim::TraceKind::FrameCollision:
      case sim::TraceKind::FrameJammed:
      case sim::TraceKind::FrameDelivered:
      case sim::TraceKind::FrameCancelled:
      case sim::TraceKind::ToneCensusBegin:
      case sim::TraceKind::ToneCensusEnd:
      case sim::TraceKind::NocSend:
      case sim::TraceKind::Warn:
      case sim::TraceKind::FrameCrcError:
      case sim::TraceKind::FramePreambleLoss:
      case sim::TraceKind::ToneRetry:
        break;
    }
    if (r.opName)
        return sim::strfmt("%s %s", sim::traceKindName(r.kind),
                           r.opName);
    return sim::traceKindName(r.kind);
}

} // namespace

ChromeTraceWriter::ChromeTraceWriter()
{
    body_.reserve(1u << 16);
}

void
ChromeTraceWriter::add(const sim::TraceRecord &r)
{
    compSeen_[static_cast<std::size_t>(r.comp) %
              (sizeof(compSeen_) / sizeof(compSeen_[0]))] = true;
    if (events_++)
        body_ += ",\n";

    // CoreOp records span the op's latency (arg); everything else is
    // an instant. ts is the simulated cycle shown as a microsecond.
    bool complete = r.kind == sim::TraceKind::CoreOp;
    sim::Tick dur = complete ? r.arg : 0;
    sim::Tick ts = complete && r.arg <= r.tick ? r.tick - r.arg : r.tick;

    body_ += "{\"name\":";
    appendEscaped(body_, eventName(r).c_str());
    body_ += sim::strfmt(",\"cat\":\"%s\",\"ph\":\"%s\"",
                         sim::traceKindName(r.kind),
                         complete ? "X" : "i");
    if (!complete)
        body_ += ",\"s\":\"t\"";
    body_ += sim::strfmt(",\"pid\":%u,\"tid\":%u,\"ts\":%" PRIu64,
                         static_cast<unsigned>(r.comp),
                         r.node == sim::kNodeNone ? 0u : r.node,
                         static_cast<std::uint64_t>(ts));
    if (complete)
        body_ += sim::strfmt(",\"dur\":%" PRIu64,
                             static_cast<std::uint64_t>(dur));

    body_ += ",\"args\":{";
    bool first = true;
    auto arg = [&](const char *key, std::string value) {
        if (!first)
            body_ += ",";
        first = false;
        appendEscaped(body_, key);
        body_ += ":";
        body_ += value;
    };
    if (r.line != sim::kAddrNone)
        arg("line", sim::strfmt("\"0x%" PRIx64 "\"",
                                static_cast<std::uint64_t>(r.line)));
    if (r.peer != sim::kNodeNone)
        arg("peer", sim::strfmt("%u", r.peer));
    if (r.fromName) {
        arg("from", sim::strfmt("\"%s\"", r.fromName));
        arg("to", sim::strfmt("\"%s\"", r.toName ? r.toName : "?"));
    }
    if (r.opName && (r.kind == sim::TraceKind::MsgSend ||
                     r.kind == sim::TraceKind::MsgRecv))
        arg("msg", sim::strfmt("\"%s\"", r.opName));
    if (r.note)
        arg("note", sim::strfmt("\"%s\"", r.note));
    if (r.arg != 0 && !complete)
        arg("arg", sim::strfmt("%" PRIu64, r.arg));
    if (!r.text.empty()) {
        std::string esc;
        appendEscaped(esc, r.text.c_str());
        arg("text", esc);
    }
    body_ += "}}";
}

std::string
ChromeTraceWriter::json() const
{
    std::string out = "{\"schema\":\"widir-trace-v1\",\n"
                      "\"traceEvents\":[\n";
    bool any = false;
    for (std::size_t i = 0;
         i < sizeof(compSeen_) / sizeof(compSeen_[0]); ++i) {
        if (!compSeen_[i])
            continue;
        if (any)
            out += ",\n";
        any = true;
        out += sim::strfmt(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
            "\"args\":{\"name\":\"%s\"}}",
            i,
            sim::traceComponentName(
                static_cast<sim::TraceComponent>(i)));
    }
    if (!body_.empty()) {
        if (any)
            out += ",\n";
        out += body_;
    }
    out += "\n]}\n";
    return out;
}

bool
ChromeTraceWriter::write(const std::string &path) const
{
    std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream f(p, std::ios::trunc);
    if (!f) {
        sim::warn("cannot write trace %s", path.c_str());
        return false;
    }
    f << json();
    return static_cast<bool>(f);
}

// ---------------------------------------------------------------------
// Transition-legality checker (tables from docs/PROTOCOL.md)
// ---------------------------------------------------------------------

namespace {

using coherence::DirState;
using coherence::L1State;

// The legal-edge relation is NOT duplicated here: it is derived from
// the protocol table (core/protocol_table.h), the same rows that drive
// controller dispatch and the generated docs/PROTOCOL.md section.
using coherence::dirEdgeLegal;
using coherence::l1EdgeLegal;

/** (node, line) continuity key; line numbers fit well below 2^48. */
std::uint64_t
trackKey(sim::NodeId node, sim::Addr line)
{
    return (static_cast<std::uint64_t>(node) << 48) ^
           static_cast<std::uint64_t>(line);
}

bool
isExclusive(L1State s)
{
    return s == L1State::M || s == L1State::E;
}

} // namespace

void
TraceLegalityChecker::flag(std::string v)
{
    if (violations_.size() < kMaxViolations)
        violations_.push_back(std::move(v));
}

void
TraceLegalityChecker::observeL1(const sim::TraceRecord &r)
{
    auto from = static_cast<L1State>(r.from);
    auto to = static_cast<L1State>(r.to);
    if (!l1EdgeLegal(from, to)) {
        flag(sim::strfmt(
            "illegal L1 transition %s->%s (node %u line "
            "%#" PRIx64 " tick %" PRIu64 " note %s)",
            r.fromName, r.toName, r.node,
            static_cast<std::uint64_t>(r.line),
            static_cast<std::uint64_t>(r.tick), r.note ? r.note : "-"));
    }
    if (!strict_)
        return;

    // Continuity. `prev` is the node's traced state before this
    // record; a node that never traced the line holds no copy of it.
    L1State prev = L1State::I;
    auto [it, fresh] = l1Last_.try_emplace(trackKey(r.node, r.line), r.to);
    if (!fresh) {
        prev = static_cast<L1State>(it->second);
        if (prev != from) {
            flag(sim::strfmt(
                "L1 continuity break: node %u line %#" PRIx64
                " was traced %s but transitions from %s at tick %" PRIu64,
                r.node, static_cast<std::uint64_t>(r.line),
                l1StateName(prev), r.fromName,
                static_cast<std::uint64_t>(r.tick)));
        }
        it->second = r.to;
    }

    // SWMR: move this node's contribution from `prev` to `to` in the
    // line's holder counts, then test the other holders by count.
    if (to == L1State::I) {
        if (prev == L1State::I)
            return;
        auto h = holders_.find(r.line);
        WIDIR_ASSERT(h != holders_.end(), "holder counts out of step");
        Holders &c = h->second;
        --c.valid;
        c.exclusive -= isExclusive(prev) ? 1 : 0;
        if (c.valid == 0)
            holders_.erase(h);
        return;
    }
    Holders &c = holders_[r.line];
    c.valid += prev == L1State::I ? 1 : 0;
    c.exclusive += isExclusive(to) ? 1 : 0;
    c.exclusive -= isExclusive(prev) ? 1 : 0;
    maxL1Node_ = std::max(maxL1Node_, r.node);
    bool self_exclusive = isExclusive(to);
    std::uint32_t other_valid = c.valid - 1;
    std::uint32_t other_exclusive = c.exclusive - (self_exclusive ? 1 : 0);
    if (other_exclusive > 0 || (self_exclusive && other_valid > 0))
        reportSwmr(r, self_exclusive);
}

void
TraceLegalityChecker::reportSwmr(const sim::TraceRecord &r,
                                 bool self_exclusive)
{
    // Rare path: name every conflicting holder, in node order.
    for (sim::NodeId n = 0;
         n <= maxL1Node_ && violations_.size() < kMaxViolations; ++n) {
        if (n == r.node)
            continue;
        auto it = l1Last_.find(trackKey(n, r.line));
        if (it == l1Last_.end())
            continue;
        auto st = static_cast<L1State>(it->second);
        if (st == L1State::I || !(isExclusive(st) || self_exclusive))
            continue;
        flag(sim::strfmt(
            "SWMR violation: line %#" PRIx64
            " is %s at node %u while %s at node %u (tick %" PRIu64 ")",
            static_cast<std::uint64_t>(r.line), r.toName, r.node,
            l1StateName(st), n, static_cast<std::uint64_t>(r.tick)));
    }
}

void
TraceLegalityChecker::observeDir(const sim::TraceRecord &r)
{
    auto from = static_cast<DirState>(r.from);
    auto to = static_cast<DirState>(r.to);
    if (!dirEdgeLegal(from, to)) {
        flag(sim::strfmt(
            "illegal directory transition %s->%s (home %u "
            "line %#" PRIx64 " tick %" PRIu64 " note %s)",
            r.fromName, r.toName, r.node,
            static_cast<std::uint64_t>(r.line),
            static_cast<std::uint64_t>(r.tick), r.note ? r.note : "-"));
    }
    if (!strict_)
        return;
    auto [it, fresh] = dirLast_.try_emplace(trackKey(r.node, r.line), r.to);
    if (fresh)
        return;
    auto prev = static_cast<DirState>(it->second);
    if (prev != from) {
        flag(sim::strfmt(
            "directory continuity break: home %u line %#" PRIx64
            " was traced %s but transitions from %s at tick %" PRIu64,
            r.node, static_cast<std::uint64_t>(r.line),
            dirStateName(prev), r.fromName,
            static_cast<std::uint64_t>(r.tick)));
    }
    it->second = r.to;
}

std::vector<std::string>
checkTraceLegality(const TraceRing &ring, bool strict)
{
    TraceLegalityChecker checker(strict);
    for (std::size_t i = 0; i < ring.size(); ++i)
        checker.observe(ring.at(i));
    return checker.violations();
}

} // namespace widir::sys
