/**
 * @file
 * Machine-readable experiment reports.
 *
 * Every bench binary dumps the full ExperimentResult set of its sweep
 * to bench/out/<name>.json so the perf trajectory of the repo can be
 * tracked across commits without scraping printed tables. The schema
 * is a single top-level object:
 *
 *   {
 *     "schema": "widir-sweep-v1",
 *     "name": "<bench name>",
 *     "results": [ { ...one object per ExperimentResult... } ]
 *   }
 *
 * Each result object carries every field the paper's evaluation
 * reports: cycles, the MPKI split, stall fractions, latency sums, the
 * hop and sharers-updated histograms, wireless behaviour (collision
 * probability, W-state transitions) and the energy breakdown.
 *
 * reportFields() is the schema: one row per key, in document order.
 * The writer, machineJson(), the round-trip tests, replay_trace's
 * diff and the schema table in EXPERIMENTS.md (tools/gen_protocol_docs)
 * all derive from it; no other code names a result key.
 *
 * A small self-contained JSON value parser lives here too so tests
 * can round-trip the writer's output without external dependencies.
 */

#ifndef WIDIR_SYSTEM_REPORT_H
#define WIDIR_SYSTEM_REPORT_H

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "system/experiment.h"

namespace widir::sys {

namespace json {

/** A parsed JSON value (tree-owning, move-only via unique_ptr). */
class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    /** Exact integer payload when the literal had no '.'/exponent. */
    std::uint64_t uinteger = 0;
    bool isInteger = false;
    bool negative = false;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    Value() = default;
    /** An exact unsigned integer. */
    template <std::unsigned_integral T>
    explicit Value(T v)
        : type(Type::Number), number(static_cast<double>(v)),
          uinteger(v), isInteger(true)
    {
    }
    /** A double; non-finite values become 0 (JSON has no literal). */
    explicit Value(double v);
    explicit Value(std::string s);
    explicit Value(const std::vector<std::uint64_t> &v);

    /**
     * Same JSON value. Numbers compare as exact integers when both
     * are unsigned integer literals, else as doubles, so a double
     * that prints as "1" equals its parsed form.
     */
    bool operator==(const Value &o) const;

    bool isNull() const { return type == Type::Null; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Number as uint64 (0 when not an unsigned integer literal). */
    std::uint64_t asUint() const;
};

/**
 * Parse @p text into a Value.
 * @param err receives a message on failure (may be null).
 * @return true on success.
 */
bool parse(const std::string &text, Value &out, std::string *err);

} // namespace json

/** One key of a widir-sweep-v1 result object. */
struct ReportField
{
    /**
     * "" for a key of the result object itself, else the nested
     * object (topology, frontend, fault, energy) holding it. A block
     * is a run of consecutive rows and is written only if one of its
     * rows is.
     */
    const char *block;
    const char *name;
    /** Describes the host process or the stimulus plumbing, not the
     *  simulated machine: left out of machineJson(). */
    bool host;
    json::Value (*get)(const ExperimentResult &);
    /** Whether the key is written for a result; nullptr: always. */
    bool (*present)(const ExperimentResult &);
    const char *doc;

    bool written(const ExperimentResult &r) const
    {
        return present == nullptr || present(r);
    }

    /** This key in a parsed result object; nullptr when absent. */
    const json::Value *lookup(const json::Value &result) const;
};

/** The result schema, one row per key in document order. */
std::span<const ReportField> reportFields();

/** Serialize one result as a JSON object. */
std::string resultToJson(const ExperimentResult &r, int indent = 0);

/**
 * The result object without its host rows: what two runs of one
 * simulated machine must agree on byte for byte, whatever host or
 * stimulus path ran them.
 */
std::string machineJson(const ExperimentResult &r);

/** Serialize a whole sweep under the widir-sweep-v1 schema. */
std::string resultsToJson(const std::string &name,
                          const std::vector<ExperimentResult> &results);

/**
 * Write the widir-sweep-v1 document to @p path, creating parent
 * directories as needed.
 * @return true if the file was written.
 */
bool writeResultsJson(const std::string &path, const std::string &name,
                      const std::vector<ExperimentResult> &results);

} // namespace widir::sys

#endif // WIDIR_SYSTEM_REPORT_H
