#!/usr/bin/env bash
# The repo's CI gate: formatting, lints, tier-1 tests, and a parallel
# quick reproduction of every experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt check ==" >&2
cargo fmt --all --check

echo "== clippy (deny warnings) ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) ==" >&2
cargo build --release

echo "== simlint (determinism & poisoning rules) ==" >&2
# The D1-D7 gate (see DESIGN.md §4.9). Fails on any finding not covered
# by the checked-in simlint.allow baseline and on stale baseline entries.
# After an intentional, justified addition, regenerate the baseline with
#   cargo run -p simlint --release -- --workspace --write-baseline
# and record the justification as a `#` comment above the new entry.
cargo run -p simlint --release --quiet -- --workspace --baseline simlint.allow

echo "== doc build (deny warnings) ==" >&2
# Broken intra-doc links and missing docs (missing_docs warns
# workspace-wide) fail fast here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== tests ==" >&2
cargo test -q

echo "== adaptive admission byte-identity (off vs cold vs warm) ==" >&2
# The quick suite must render identical stdout whether admission is FIFO
# (--costs off), heuristic-ordered (cold COSTS file), or cost-ordered
# from the records the cold run just persisted (warm). Doubles as the
# quick-repro smoke.
ci_costs="$(mktemp -u)"
ci_out="$(mktemp -d)"
cargo run --release -p experiments --bin repro -- \
    --quick --jobs 2 --costs off all > "$ci_out/off.txt"
cargo run --release -p experiments --bin repro -- \
    --quick --jobs 2 --costs "$ci_costs" --record-costs all > "$ci_out/cold.txt" 2> /dev/null
cargo run --release -p experiments --bin repro -- \
    --quick --jobs 2 --costs "$ci_costs" all > "$ci_out/warm.txt"
cmp "$ci_out/off.txt" "$ci_out/cold.txt" || {
    echo "cold COSTS admission changed repro output" >&2
    exit 1
}
cmp "$ci_out/off.txt" "$ci_out/warm.txt" || {
    echo "warm COSTS admission changed repro output" >&2
    exit 1
}

echo "== shared-prefix fork byte-identity (--fork vs --no-fork) ==" >&2
# Forking warm snapshots is an execution strategy, never an observable:
# the quick suite's stdout must not change when cells re-simulate their
# warm prefix from scratch. The runs above all forked (the default), so
# one --no-fork pass closes the comparison.
cargo run --release -p experiments --bin repro -- \
    --quick --jobs 2 --no-fork --costs off all > "$ci_out/scratch.txt"
cmp "$ci_out/off.txt" "$ci_out/scratch.txt" || {
    echo "forked cells changed repro output vs --no-fork" >&2
    exit 1
}

echo "== kill -9 and --resume byte-identity ==" >&2
# A suite SIGKILL'd mid-run leaves a partial ledger; restarting the same
# command with --resume must replay the committed prefix and produce
# stdout byte-identical to the uninterrupted run above. Wherever the kill
# lands — before, between, or mid-commit (a torn tail) — the contract is
# the same.
ci_ledger="$(mktemp -u)"
target/release/repro --quick --jobs 2 --costs off \
    --resume --ledger "$ci_ledger" all > "$ci_out/killed.txt" 2>/dev/null &
repro_pid=$!
# The first experiment commits ~20 s in (commits stream in command-line
# order), and the whole quick suite takes ~28 s at --jobs 2: a kill here
# lands mid-suite with a partially committed ledger.
sleep 22
kill -9 "$repro_pid" 2>/dev/null || true
wait "$repro_pid" 2>/dev/null || true
target/release/repro --quick --jobs 2 --costs off \
    --resume --ledger "$ci_ledger" all > "$ci_out/resumed.txt"
cmp "$ci_out/off.txt" "$ci_out/resumed.txt" || {
    echo "resumed suite stdout diverged from the clean run" >&2
    exit 1
}
rm -f "$ci_ledger"
rm -rf "$ci_costs" "$ci_out"

echo "== scenario catalog smoke ==" >&2
# The declarative scenario catalog (SCENARIOS.md): every cookbook file
# must pass both validation layers, a representative file must render
# byte-identical stdout across --jobs, and the seeded fuzzer must hold
# 100 generated scenarios clean under --paranoid (release: the full
# case count; `cargo test -q` above ran the 16-case debug slice).
target/release/repro scenarios examples/scenarios --check
sc_out="$(mktemp -d)"
# No --quick here: quick mode floors measurement windows at 800 ms,
# which would *inflate* the cookbook's deliberately small windows.
target/release/repro --jobs 1 --costs off \
    --scenario examples/scenarios/overcommit-grid.toml > "$sc_out/j1.txt"
target/release/repro --jobs 2 --costs off \
    --scenario examples/scenarios/overcommit-grid.toml > "$sc_out/j2.txt"
cmp "$sc_out/j1.txt" "$sc_out/j2.txt" || {
    echo "--jobs changed scenario stdout" >&2
    exit 1
}
rm -rf "$sc_out"
cargo test --release -p experiments --test scenario_fuzz -q

echo "== fault-fuzz smoke (fixed seeds) ==" >&2
# The 100-plan property harness plus the empty-plan byte-identity check;
# the vendored proptest stub seeds deterministically, so this is a fixed
# fault-fuzz corpus, not a flaky random one.
cargo test --release -p experiments --test fault_injection -q

echo "== wheel-vs-heap differential smoke (fixed seeds) ==" >&2
# The timing-wheel queue against the retained heap reference backend:
# 72 seeded op streams (push/pop/deadline-pop across all wheel levels,
# past the horizon and behind the drain frontier), asserting
# len/peek/earliest/pop agreement each step.
# Deterministic seeds, so a failure here is a real wheel bug, never flake.
cargo test --release -p experiments --test wheel_vs_heap -q

echo "== bench smoke (hot paths within 25% of committed baseline) ==" >&2
# Re-measure the two load-bearing hot-path benchmarks with a short window
# and compare each against the *last* committed row of the same name in
# BENCH_hotpaths.json; >25% slower fails the gate. Short windows are
# noisy-but-cheap: real regressions of the kind this guards against
# (accidental O(n) in the queue, a lost inline) blow far past 25%.
# Minima are compared, not means: host preemption only ever adds time,
# so the mean swings 10-15% run-to-run on an unchanged build (the
# pr4->pr5 "drift" was exactly this) while min-of-N stays put.
#
# The comparison is host-speed-normalized: `calibration_spin` is a fixed
# pure-integer workload whose minimum tracks only the executing core's
# effective speed, so the gate compares
#     fresh_min / fresh_calibration  vs  committed_min / committed_calibration
# instead of raw nanoseconds. A CI host running at a different clock (or
# a laptop on battery) shifts both numerator and denominator together
# and the ratio stays put; a real code regression moves only the
# numerator (the pr6->pr7 push_pop "regression" was half host drift).
smoke_json="$(mktemp)"
BENCH_JSON="$smoke_json" BENCH_LABEL=smoke BENCH_MEASURE_SECS=1 \
    scripts/bench.sh calibration_spin event_queue_push_pop_1k simulate_one_second_baseline >/dev/null
last_min() {
    awk -v name="$2" '
        index($0, "\"name\":\"" name "\"") {
            split($0, parts, "\"min_ns\":")
            split(parts[2], num, ",")
            min = num[1]
        }
        END { print min }
    ' "$1"
}
committed_cal="$(last_min BENCH_hotpaths.json calibration_spin)"
fresh_cal="$(last_min "$smoke_json" calibration_spin)"
for name in event_queue_push_pop_1k simulate_one_second_baseline; do
    committed="$(last_min BENCH_hotpaths.json "$name")"
    fresh="$(last_min "$smoke_json" "$name")"
    awk -v committed="$committed" -v fresh="$fresh" \
        -v ccal="$committed_cal" -v fcal="$fresh_cal" -v name="$name" 'BEGIN {
        if (committed == "" || fresh == "" || ccal == "" || fcal == "") {
            printf "bench smoke: missing row (name=%s committed=%s fresh=%s committed_cal=%s fresh_cal=%s)\n", \
                name, committed, fresh, ccal, fcal > "/dev/stderr"
            exit 1
        }
        committed_ratio = (committed + 0) / (ccal + 0)
        fresh_ratio = (fresh + 0) / (fcal + 0)
        if (fresh_ratio > committed_ratio * 1.25) {
            printf "bench smoke: %s regressed >25%% normalized: min %.0f ns (ratio %.3f) vs committed min %.0f ns (ratio %.3f)\n", \
                name, fresh, fresh_ratio, committed, committed_ratio > "/dev/stderr"
            exit 1
        }
        printf "bench smoke: %s ok (min %.0f ns, ratio %.3f vs committed %.3f)\n", \
            name, fresh, fresh_ratio, committed_ratio > "/dev/stderr"
    }'
done
rm -f "$smoke_json"

echo "== paranoid quick repro under injected faults ==" >&2
cargo run --release -p experiments --bin repro -- --quick --paranoid \
    --faults count=24,window_ms=300 --keep-going fig9 table2 > /dev/null

echo "== crash-replay soak (randomized seeds, ~30 s) ==" >&2
# Hammer one cheap experiment with random seeds, alternating survivable
# fault plans (kinds=all: no artifacts expected) and sabotage plans
# (every cell crashes and dumps an artifact). Then execute every
# artifact's embedded replay command and require it to reproduce the
# recorded failure line — the suite must end with zero unreplayable
# failures.
soak_dir="$(mktemp -d)"
soak_deadline=$(($(date +%s) + 30))
soak_i=0
while [ "$(date +%s)" -lt "$soak_deadline" ]; do
    soak_i=$((soak_i + 1))
    seed=$((RANDOM * 32768 + RANDOM))
    if [ $((soak_i % 2)) -eq 0 ]; then kinds=all; else kinds=sabotage; fi
    target/release/repro --quick --costs off --keep-going --seed "$seed" \
        --faults "seed=$seed,count=24,window_ms=300,kinds=$kinds" \
        --artifacts "$soak_dir/crash$soak_i" table2 >/dev/null 2>&1 || true
done
unreplayable=0
replayed=0
for artifact in "$soak_dir"/crash*/*.txt; do
    [ -e "$artifact" ] || continue
    recorded="$(sed -n 's/^failure: //p' "$artifact" | head -1)"
    replay="$(sed -n 's/^replay: repro //p' "$artifact" | head -1)"
    if [ -z "$replay" ]; then
        echo "soak: $artifact has no replay command" >&2
        unreplayable=$((unreplayable + 1))
        continue
    fi
    rerun_dir="$(mktemp -d)"
    eval "target/release/repro --costs off --artifacts '$rerun_dir' $replay" \
        >/dev/null 2>&1 || true
    fresh="$(cat "$rerun_dir"/*.txt 2>/dev/null | sed -n 's/^failure: //p' | head -1)"
    if [ "$recorded" != "$fresh" ]; then
        echo "soak: unreplayable failure in $artifact" >&2
        echo "  recorded: $recorded" >&2
        echo "  fresh:    ${fresh:-<no failure reproduced>}" >&2
        unreplayable=$((unreplayable + 1))
    else
        replayed=$((replayed + 1))
    fi
    rm -rf "$rerun_dir"
done
if [ "$unreplayable" -ne 0 ]; then
    echo "soak: $unreplayable unreplayable failures" >&2
    exit 1
fi
echo "soak: $soak_i faulted runs, $replayed artifacts replayed identically" >&2
rm -rf "$soak_dir"

echo "CI OK" >&2
