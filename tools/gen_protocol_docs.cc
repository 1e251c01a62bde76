/**
 * @file
 * Render the generated sections of the docs from the tables compiled
 * into the simulator:
 *   - `protocol-table` (docs/PROTOCOL.md): the transition relation,
 *     from the rule rows (core/protocol_table.h) that drive the
 *     controllers and the trace-legality checker;
 *   - `report-schema` (EXPERIMENTS.md): the widir-sweep-v1 result
 *     keys, from the field table (system/report.h) behind the writer.
 *
 * Modes:
 *   gen_protocol_docs --emit           print every section to stdout
 *   gen_protocol_docs --check  <FILE>  exit 1 if a section marked in
 *                                      the file is stale
 *   gen_protocol_docs --update <FILE>  rewrite the file's marked
 *                                      sections in place
 *
 * A section lives between its marker lines (beginMarker/endMarker);
 * everything outside the markers is hand-written prose and is never
 * touched.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/protocol_table.h"
#include "system/report.h"

namespace {

using namespace widir;
using namespace widir::coherence;

std::string
beginMarker(const char *tag)
{
    return std::string("<!-- BEGIN GENERATED: ") + tag +
           " (tools/gen_protocol_docs; do not edit by hand) -->";
}

std::string
endMarker(const char *tag)
{
    return std::string("<!-- END GENERATED: ") + tag + " -->";
}

/** A DirTxnRule role mask: "any", or the roles it names. */
std::string
rolesText(std::uint8_t roles)
{
    if (roles == kByAny)
        return "any";
    std::string out;
    for (std::size_t r = 0; r < kNumSenderRoles; ++r) {
        if ((roles >> r) & 1u)
            out += (out.empty() ? "" : ", ") +
                   std::string(senderRoleName(static_cast<SenderRole>(r)));
    }
    return out;
}

/** A trace note in backticks, or "-" for none. */
std::string
noteText(const char *note)
{
    return note ? std::string("`") + note + "`" : "-";
}

/** A DirTxnRule `ends` mask: the states it names, or "-". */
std::string
endsText(std::uint8_t ends)
{
    std::string out;
    for (std::size_t s = 0; s < kNumDirStates; ++s) {
        if ((ends >> s) & 1u)
            out += (out.empty() ? "" : ", ") +
                   std::string(dirStateName(static_cast<DirState>(s)));
    }
    return out.empty() ? "-" : out;
}

/** The legality matrix for one domain as a markdown table. */
template <typename State, typename LegalFn>
std::string
legalityMatrix(std::size_t num_states, const char *(*name)(State),
               LegalFn legal)
{
    std::string out = "| from \\ to |";
    for (std::size_t t = 0; t < num_states; ++t)
        out += std::string(" ") + name(static_cast<State>(t)) + " |";
    out += "\n|---|";
    for (std::size_t t = 0; t < num_states; ++t)
        out += "---|";
    out += "\n";
    for (std::size_t f = 0; f < num_states; ++f) {
        out += std::string("| **") + name(static_cast<State>(f)) +
               "** |";
        for (std::size_t t = 0; t < num_states; ++t) {
            bool ok = legal(static_cast<State>(f),
                            static_cast<State>(t));
            out += ok ? " yes |" : " - |";
        }
        out += "\n";
    }
    return out;
}

std::string
protocolTable()
{
    std::string out;
    out += "The tables below are rendered from the rule arrays in\n"
           "`src/core/protocol_table.cc` -- the same rows that drive\n"
           "controller dispatch and `sys::checkTraceLegality`. Rows\n"
           "with a trace note are *traced edges*: the controller emits\n"
           "a transition record with exactly that note when the row\n"
           "fires. Rows without a note are tolerated no-ops or\n"
           "transient bookkeeping. The L1's Table I lists the outcomes\n"
           "of each (state, event) cell, and a cell with no row cannot\n"
           "occur. The directory executes its tables: Table II picks\n"
           "a step by state, event and guards for a line with no\n"
           "transaction open, the in-transaction table by transaction,\n"
           "event and sender for a line with one open, and a\n"
           "combination neither lists makes the directory panic. The\n"
           "L1's in-transaction table works the same way.\n\n";

    out += "### L1 transition legality (derived)\n\n";
    out += legalityMatrix<L1State>(kNumL1States, l1StateName,
                                   l1EdgeLegal);
    out += "\nSelf-loops are intentionally absent: the L1 never "
           "traces a same-state edge.\n\n";

    out += "### Directory transition legality (derived)\n\n";
    out += legalityMatrix<DirState>(kNumDirStates, dirStateName,
                                    dirEdgeLegal);
    out += "\nThe two self-loops are real protocol events: `EM -> EM` "
           "is the owner hand-off (`FwdGetX`) and `W -> W` covers "
           "SharerCount changes (`PutW`, `join`).\n\n";

    out += "### L1 rules (Table I)\n\n";
    out += "| From | Event | To | Trace note |\n";
    out += "|---|---|---|---|\n";
    for (const L1Rule &r : l1Rules()) {
        out += std::string("| ") + l1StateName(r.from) + " | " +
               l1EventName(r.event) + " | " + l1StateName(r.to) + " | " +
               noteText(r.note) + " |\n";
    }
    out += "\n### L1 events during a transaction\n\n";
    out += "| Phase | Event | Step |\n";
    out += "|---|---|---|\n";
    for (const L1TxnRule &r : l1TxnRules()) {
        out += std::string("| ") + l1PhaseName(r.phase) + " | " +
               l1EventName(r.event) + " | " + l1StepName(r.step) +
               " |\n";
    }
    out += "\n### Directory rules (Table II)\n\n";
    out += "| From | Event | Guard | Step | To | Trace note |\n";
    out += "|---|---|---|---|---|---|\n";
    for (const DirRule &r : dirRules()) {
        out += std::string("| ") + dirStateName(r.from) + " | " +
               dirEventName(r.event) + " | " + dirGuardText(r.guard) +
               " | " + dirStepName(r.step) + " | " + dirStateName(r.to) +
               " | " + noteText(r.note) + " |\n";
    }
    out += "\n### Directory events during a transaction\n\n";
    out += "| Transaction | Event | Sender | Step | Ends in | Trace note |\n";
    out += "|---|---|---|---|---|---|\n";
    for (const DirTxnRule &r : dirTxnRules()) {
        out += std::string("| ") + dirTxnTypeName(r.txn) + " | " +
               dirEventName(r.event) + " | " + rolesText(r.roles) +
               " | " + dirStepName(r.step) + " | " + endsText(r.ends) +
               " | " + noteText(r.note) + " |\n";
    }
    out += "\n";
    return out;
}

std::string
reportSchema()
{
    std::string out =
        "Rendered from `sys::reportFields()` (`src/system/report.cc`), in\n"
        "document order. `sys::machineJson` leaves out host-side keys.\n\n"
        "| Block | Key | Host-side | Meaning |\n"
        "|---|---|---|---|\n";
    for (const sys::ReportField &f : sys::reportFields()) {
        out += std::string("| ") + (*f.block ? f.block : "-") + " | `" +
               f.name + "` | " + (f.host ? "yes" : "-") + " | " +
               f.doc + " |\n";
    }
    out += "\n";
    return out;
}

/** A generated section: its marker tag and its renderer. */
struct Section
{
    const char *tag;
    std::string (*render)();
};

constexpr Section kSections[] = {
    {"protocol-table", protocolTable},
    {"report-schema", reportSchema},
};

std::string
generatedSection(const Section &s)
{
    return beginMarker(s.tag) + "\n\n" + s.render() + endMarker(s.tag) +
           "\n";
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return true;
}

/**
 * @p doc with every marked section re-rendered. Returns false (with a
 * message) when the file marks no section or a section's end marker
 * is missing.
 */
bool
regenerate(const std::string &path, const std::string &doc,
           std::string &out)
{
    out = doc;
    bool found = false;
    for (const Section &s : kSections) {
        const std::string begin = beginMarker(s.tag);
        const std::string end = endMarker(s.tag);
        std::size_t b = out.find(begin);
        if (b == std::string::npos)
            continue;
        std::size_t e = out.find(end, b);
        if (e == std::string::npos) {
            std::fprintf(stderr, "gen_protocol_docs: %s: '%s' has no '%s'\n",
                         path.c_str(), begin.c_str(), end.c_str());
            return false;
        }
        e += end.size();
        if (e < out.size() && out[e] == '\n')
            ++e;
        out.replace(b, e - b, generatedSection(s));
        found = true;
    }
    if (!found)
        std::fprintf(stderr,
                     "gen_protocol_docs: %s marks no generated section\n",
                     path.c_str());
    return found;
}

int
emitMode()
{
    for (const Section &s : kSections)
        std::fputs(generatedSection(s).c_str(), stdout);
    return 0;
}

/** --check (exit 1 when stale) or --update the sections of @p path. */
int
syncMode(const std::string &path, bool update)
{
    std::string doc, next;
    if (!readFile(path, doc)) {
        std::fprintf(stderr, "gen_protocol_docs: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    if (!regenerate(path, doc, next))
        return 1;
    if (next == doc) {
        if (update)
            std::printf("gen_protocol_docs: %s already current\n",
                        path.c_str());
        return 0;
    }
    if (!update) {
        std::fprintf(stderr,
                     "gen_protocol_docs: %s generated section is "
                     "stale\n",
                     path.c_str());
        return 1;
    }
    std::ofstream f(path, std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "gen_protocol_docs: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    f << next;
    std::printf("gen_protocol_docs: updated %s\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--emit") == 0)
        return emitMode();
    if (argc == 3 && std::strcmp(argv[1], "--check") == 0)
        return syncMode(argv[2], false);
    if (argc == 3 && std::strcmp(argv[1], "--update") == 0)
        return syncMode(argv[2], true);
    std::fprintf(stderr,
                 "usage: %s --emit | --check <FILE.md> | "
                 "--update <FILE.md>\n",
                 argv[0]);
    return 2;
}
