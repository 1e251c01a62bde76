#!/bin/sh
# docs-check: the reference docs must mention every enumerator of the
# user-facing enums -- docs/PROTOCOL.md for the protocol, docs/TRACING.md
# for the trace schema, docs/FAULTS.md for the fault model -- and the
# generated transition-table section of PROTOCOL.md must match the
# protocol table compiled into the simulator. Every environment knob
# and every --flag the prose docs name must also still exist in the
# code, so a removed knob or flag cannot linger in a table. The
# generated result-schema section of EXPERIMENTS.md must likewise match
# the report field table. Run from anywhere: pass the repo root as $1
# and (optionally) the built gen_protocol_docs binary as $2.
# Registered as the `docs_check` CTest (tests/CMakeLists.txt) so the
# references cannot drift when a message type, state, trace kind,
# fault knob, environment knob or flag is added or removed.
set -u

root="${1:-.}"
gen="${2:-}"
for d in docs/PROTOCOL.md docs/TRACING.md docs/FAULTS.md \
         docs/FRONTEND.md; do
    if [ ! -f "$root/$d" ]; then
        echo "docs-check: missing $root/$d" >&2
        exit 1
    fi
done

fail=0

# extract_enum <file> <EnumName>: print one enumerator per line.
# Handles single-line (`enum class E { A, B };`) and multi-line bodies,
# strips //-comments and `= value` initializers.
extract_enum() {
    awk -v enum="$2" '
        $0 ~ "enum class " enum "([^A-Za-z0-9_]|$)" {
            active = 1; body = 0; done = 0
        }
        active {
            line = $0
            sub(/\/\/.*/, "", line)
            if (!body) {
                if (index(line, "{") == 0) next
                sub(/^[^{]*{/, "", line)
                body = 1
            }
            if (line ~ /}/) { sub(/}.*/, "", line); done = 1 }
            n = split(line, parts, ",")
            for (i = 1; i <= n; i++) {
                name = parts[i]
                sub(/=.*/, "", name)
                gsub(/[^A-Za-z0-9_]/, "", name)
                if (name != "") print name
            }
            if (done) { active = 0 }
        }
    ' "$1"
}

# check_enum <header> <EnumName> <doc>: every enumerator must appear
# (as a whole word) in the named reference document.
check_enum() {
    file="$1"
    enum="$2"
    doc="$root/${3:-docs/PROTOCOL.md}"
    names=$(extract_enum "$root/$file" "$enum")
    if [ -z "$names" ]; then
        echo "docs-check: found no enumerators for $enum in $file" >&2
        fail=1
        return
    fi
    for name in $names; do
        if ! grep -qw "$name" "$doc"; then
            echo "docs-check: $enum::$name ($file) is not documented" \
                 "in ${doc#"$root"/}" >&2
            fail=1
        fi
    done
}

check_enum src/core/messages.h MsgType
check_enum src/core/messages.h GrantState
check_enum src/core/protocol_table.h L1State
check_enum src/core/protocol_table.h DirState
check_enum src/core/protocol_table.h DirTxnType
check_enum src/core/protocol_table.h L1Event
check_enum src/core/protocol_table.h DirEvent
check_enum src/core/protocol_table.h L1Phase
check_enum src/core/protocol_table.h L1Step
check_enum src/core/protocol_table.h SenderRole
check_enum src/core/protocol_table.h DirStep
check_enum src/core/protocol_table.h DirGuard
check_enum src/wireless/frame.h FrameKind
check_enum src/sim/trace.h TraceKind docs/TRACING.md
check_enum src/sim/trace.h TraceComponent docs/TRACING.md
check_enum src/fault/fault.h FrameFate docs/FAULTS.md
check_enum src/frontend/mtrace.h OpKind docs/FRONTEND.md
check_enum src/cpu/op_sink.h SyncNote docs/FRONTEND.md
check_enum src/frontend/frontend.h FrontendKind docs/FRONTEND.md

# Every WIDIR_* name in the prose docs must occur (as a whole word)
# somewhere in the code, the tools, the tests or CI.
knobs=$(cat "$root/README.md" "$root/DESIGN.md" "$root/EXPERIMENTS.md" \
            "$root"/docs/*.md | grep -oE 'WIDIR_[A-Z0-9_]+' | sort -u)
for knob in $knobs; do
    if ! grep -rqsw -- "$knob" "$root/src" "$root/bench" "$root/tools" \
            "$root/tests" "$root/examples" "$root/CMakeLists.txt" \
            "$root/.github"; then
        echo "docs-check: $knob is documented but occurs nowhere in" \
             "src/, bench/, tools/, tests/, examples/, CMakeLists.txt" \
             "or .github/" >&2
        fail=1
    fi
done

# Likewise every --flag the prose docs name, so a deleted flag cannot
# linger in the prose either.
flags=$(cat "$root/README.md" "$root/DESIGN.md" "$root/EXPERIMENTS.md" \
            "$root"/docs/*.md | grep -oE -- '--[a-z][a-z0-9_-]*[a-z0-9]' |
            sort -u)
for flag in $flags; do
    if ! grep -rqswF -- "$flag" "$root/src" "$root/bench" "$root/tools" \
            "$root/tests" "$root/examples" "$root/perfbench" \
            "$root/CMakeLists.txt" "$root/.github"; then
        echo "docs-check: $flag is documented but occurs nowhere in" \
             "src/, bench/, tools/, tests/, examples/, perfbench/," \
             "CMakeLists.txt or .github/" >&2
        fail=1
    fi
done

# The generated sections must be byte-identical to what the compiled-in
# tables render (docs == code): the transition relation in PROTOCOL.md
# and the widir-sweep-v1 result schema in EXPERIMENTS.md.
if [ -n "$gen" ]; then
    for d in docs/PROTOCOL.md EXPERIMENTS.md; do
        if ! "$gen" --check "$root/$d"; then
            echo "docs-check: generated $d section is stale" \
                 "(run: $gen --update $d)" >&2
            fail=1
        fi
    done
fi

if [ "$fail" -ne 0 ]; then
    echo "docs-check: FAILED (update the docs named above)" >&2
    exit 1
fi
echo "docs-check: OK"
