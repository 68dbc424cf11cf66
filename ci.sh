#!/usr/bin/env bash
# Offline CI gate: everything runs from the committed sources with no
# network access (the workspace has zero external dependencies).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test -q (with test-count regression guard)"
TEST_OUT=$(cargo test -q --workspace --offline 2>&1)
printf '%s\n' "$TEST_OUT"
TOTAL=$(printf '%s\n' "$TEST_OUT" \
    | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
    | awk '{s+=$1} END {print s+0}')
echo "    workspace test count: $TOTAL"
# Regression guard: the suite only ever grows. Raise the floor when
# you add tests; never lower it.
MIN_TESTS=567
if [ "$TOTAL" -lt "$MIN_TESTS" ]; then
    echo "ci: workspace test count regressed below $MIN_TESTS (got $TOTAL)" >&2
    exit 1
fi

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The benchmark package's own tests. poolbench has an empty [workspace]
# of its own, so `--workspace` above never reaches it. Its tests drive
# all four workloads through the session factory the benchmark measures
# (one compiled circuit per shard, every session built on a clone of
# it) and check exact counts, the interpreter oracle and recovery.
echo "==> poolbench tests (all four workloads, unpaced)"
cargo test -q --offline --manifest-path poolbench/Cargo.toml

# Static analysis gate: every example must lint clean of the deny set —
# non-constructive cycles plus the dataflow lints (unobservable signals,
# never-emittable outputs, dependency-only cycles, undecided cycles).
# Known findings live in ci/analyze-baseline.json (regenerate by rerunning
# analyze --format json and keeping the lines you accept); anything NEW
# still fails the gate. causality_cycle.hh, the paper's X = not X
# paradox, must FAIL the gate (that is what it is for).
DENY="--deny non-constructive --deny undecided-cycle --deny unobservable-signal \
      --deny never-emittable --deny dependency-cycle"
echo "==> hiphop analyze deny sweep over examples/hh (baseline: ci/analyze-baseline.json)"
for hh in examples/hh/*.hh; do
    if [ "$hh" = "examples/hh/supervised_abort.hh" ]; then
        # Needs host hooks (fetch.spawn/fetch.kill) that only the
        # embedding registers; the standalone CLI cannot parse it.
        echo "    $hh: skipped (host hooks)"
        continue
    fi
    if [ "$hh" = "examples/hh/causality_cycle.hh" ]; then
        if ./target/release/hiphopc analyze "$hh" $DENY \
            --baseline ci/analyze-baseline.json > /dev/null; then
            echo "ci: $hh should be non-constructive but passed the gate" >&2
            exit 1
        fi
        echo "    $hh: rejected as expected"
    else
        ./target/release/hiphopc analyze "$hh" $DENY \
            --baseline ci/analyze-baseline.json > /dev/null
        echo "    $hh: ok"
    fi
done

# Widened cross-engine differential sweep: every generated program runs
# under the levelized, constructive, naive, hybrid and sparse engines
# plus the reference interpreter (tests/proptests.rs). Override the seed
# count with HIPHOP_PROPTEST_SEEDS=N ./ci.sh.
HIPHOP_PROPTEST_SEEDS="${HIPHOP_PROPTEST_SEEDS:-64}"
echo "==> differential proptest sweep (${HIPHOP_PROPTEST_SEEDS} seeds)"
HIPHOP_PROPTEST_SEEDS="$HIPHOP_PROPTEST_SEEDS" \
    cargo test -q --offline --test proptests -- all_engines_agree_with_the_interpreter

# Fact-driven schedule-shrinking differential gate: with and without the
# inter-instant dataflow shrink, generated programs must produce
# identical observable traces under all five engines (tests/proptests.rs)
# and under both bit-parallel cohort widths (tests/cohort.rs). Any
# unsound abstract-interpretation fact folds a live net and fails here.
echo "==> fact-shrinking differential gate (5 engines + both cohort widths)"
cargo test -q --offline --test proptests -- fact_driven_shrinking_preserves_behavior_under_every_engine
cargo test -q --offline --test cohort -- fact_shrunk_circuits_match_unshrunk_outputs_under_both_widths

# Widened chaos differential sweep: each seeded fault schedule runs a
# chaotic machine against a fault-free shadow under every engine;
# every injected fault must roll back to the shadow's exact state digest
# (tests/chaos.rs). Override the seed count with
# HIPHOP_CHAOS_SEEDS=N ./ci.sh.
HIPHOP_CHAOS_SEEDS="${HIPHOP_CHAOS_SEEDS:-100}"
echo "==> chaos fault-injection sweep (${HIPHOP_CHAOS_SEEDS} seeds)"
HIPHOP_CHAOS_SEEDS="$HIPHOP_CHAOS_SEEDS" \
    cargo test -q --offline --test chaos

# Cohort differential battery: generated programs run bit-packed
# (u64 and wide lanes) against a scalar shadow pool; every instant's
# outputs and every session's state digest must be bit-identical, with
# forced peels (action faults) mid-cohort (tests/cohort.rs). Override the
# seed count with HIPHOP_COHORT_SEEDS=N ./ci.sh.
HIPHOP_COHORT_SEEDS="${HIPHOP_COHORT_SEEDS:-40}"
echo "==> cohort differential battery (${HIPHOP_COHORT_SEEDS} seeds)"
HIPHOP_COHORT_SEEDS="$HIPHOP_COHORT_SEEDS" \
    cargo test -q --offline --test cohort

# Esterel-kernel conformance battery: hand-written per-instant emission
# oracles for abort/weakabort/suspend/every/traps/sustain/counted
# await/reincarnation, each checked under all five engines AND the
# reference interpreter (tests/conformance.rs).
echo "==> Esterel-kernel conformance battery (5 engines + interpreter)"
cargo test -q --offline --test conformance

# Session-pool smoke: a deterministic 64-session / 4-shard serve run on
# the virtual clock must report its metrics JSON with a nonzero
# reaction count and a digest.
echo "==> session-pool serve smoke (64 sessions / 4 shards)"
SERVE_JSON=$(./target/release/hiphopc serve --sessions 64 --shards 4 --ticks 8 2>/dev/null)
REACTIONS=$(printf '%s' "$SERVE_JSON" | grep -o '"reactions":[0-9]*' | head -1 | cut -d: -f2)
if [ -z "$REACTIONS" ] || [ "$REACTIONS" -le 0 ]; then
    echo "ci: serve smoke reported no reactions: $SERVE_JSON" >&2
    exit 1
fi
case "$SERVE_JSON" in
    *'"digest":"'*) : ;;
    *) echo "ci: serve smoke JSON has no digest: $SERVE_JSON" >&2; exit 1 ;;
esac
echo "    serve: $REACTIONS reactions across 4 shards"

# The same deterministic serve run bit-packed: the cohort engine must
# report the identical pool digest (lockstep execution is an engine
# detail, never an observable one).
echo "==> cohort serve smoke (same run, --cohort u64 / wide)"
SCALAR_DIGEST=$(printf '%s' "$SERVE_JSON" | grep -o '"digest":"[0-9a-f]*"' | head -1)
for wdt in u64 wide; do
    COHORT_JSON=$(./target/release/hiphopc serve --sessions 64 --shards 4 --ticks 8 \
        --cohort "$wdt" 2>/dev/null)
    COHORT_DIGEST=$(printf '%s' "$COHORT_JSON" | grep -o '"digest":"[0-9a-f]*"' | head -1)
    if [ -z "$COHORT_DIGEST" ] || [ "$COHORT_DIGEST" != "$SCALAR_DIGEST" ]; then
        echo "ci: cohort($wdt) serve digest diverged: $COHORT_DIGEST vs $SCALAR_DIGEST" >&2
        exit 1
    fi
    echo "    cohort $wdt: digest matches scalar"
done

# Sparse differential serve gate: the same deterministic serve run with
# every session forced onto the sparse incremental engine must report
# the identical pool digest at TWO shard counts (engine choice and
# shard placement are both execution details, never observable ones).
echo "==> sparse serve gate (same run, --engine sparse at 4 and 2 shards)"
for shd in 4 2; do
    SPARSE_JSON=$(./target/release/hiphopc serve --sessions 64 --shards "$shd" --ticks 8 \
        --engine sparse 2>/dev/null)
    SPARSE_DIGEST=$(printf '%s' "$SPARSE_JSON" | grep -o '"digest":"[0-9a-f]*"' | head -1)
    if [ -z "$SPARSE_DIGEST" ] || [ "$SPARSE_DIGEST" != "$SCALAR_DIGEST" ]; then
        echo "ci: sparse serve digest diverged at $shd shards: $SPARSE_DIGEST vs $SCALAR_DIGEST" >&2
        exit 1
    fi
    echo "    sparse @ $shd shards: digest matches the default engines"
done

# §E15 bench smoke: the wide-but-quiet workload's deterministic gates —
# sparse digest-identical to levelized AND evaluating an order of
# magnitude fewer nets on the quiet pool, no extra evals on the busy
# dense drive. (Timing claims live in the report binary, not CI.)
echo "==> sparse bench smoke (§E15 deterministic eval-count gates)"
cargo test -q --offline -p hiphop-bench -- sparse

# Flight-recorder round trip: record a chaos-seeded 64-session serve,
# then replay the journal on a pool with a DIFFERENT shard count and
# demand every digest checkpoint match exactly (shard assignment is
# pure plumbing; chaos fault schedules derive from per-session seeds).
echo "==> flight record → replay round trip (4 shards → 3 shards, chaos 5%)"
FLIGHT_DIR=$(mktemp -d)
trap 'rm -rf "$FLIGHT_DIR"' EXIT
FLIGHT_JSON=$(./target/release/hiphopc serve --sessions 64 --shards 4 --ticks 16 --seed 7 \
    --chaos-rate 0.05 --record "$FLIGHT_DIR/flight.jsonl" \
    --trace-spans "$FLIGHT_DIR/trace.json" --prom "$FLIGHT_DIR/metrics.prom")
for f in flight.jsonl trace.json metrics.prom; do
    if [ ! -s "$FLIGHT_DIR/$f" ]; then
        echo "ci: serve --record did not write $f" >&2
        exit 1
    fi
done
REPLAY_JSON=$(./target/release/hiphopc replay "$FLIGHT_DIR/flight.jsonl" \
    --shards 3 --verify-digests)
case "$REPLAY_JSON" in
    *'"ok":true'*) : ;;
    *) echo "ci: replay reported digest mismatches: $REPLAY_JSON" >&2; exit 1 ;;
esac
echo "    replay: $REPLAY_JSON"

# Durability gate: the same chaos scenario served with checkpointing and
# the rebalancer armed, then "crashed" and recovered from the last
# checkpoint plus the journal suffix on a DIFFERENT shard count — under
# both cohort modes, since snapshots are execution-mode-agnostic. The
# rebalanced run must also report the exact digest of the plain run
# above (live migration is pure placement, never semantics).
echo "==> durability gate: checkpoint → crash → anchored recovery (both cohort modes)"
DUR_JSON=$(./target/release/hiphopc serve --sessions 64 --shards 4 --ticks 16 --seed 7 \
    --chaos-rate 0.05 --record "$FLIGHT_DIR/durable_flight.jsonl" --rebalance)
# The mid-run checkpoint a crash would have left on disk: the virtual
# clock makes an 8-tick prefix serve of the same scenario bit-identical
# to the first 8 ticks of the recorded run.
./target/release/hiphopc serve --sessions 64 --shards 4 --ticks 8 --seed 7 \
    --chaos-rate 0.05 --snapshot "$FLIGHT_DIR/pool_snapshot.jsonl" > /dev/null
if ! head -1 "$FLIGHT_DIR/pool_snapshot.jsonl" | grep -q '"kind":"pool-snapshot"'; then
    echo "ci: serve --snapshot did not write a pool snapshot" >&2
    exit 1
fi
PLAIN_DIGEST=$(printf '%s' "$FLIGHT_JSON" | grep -o '"digest":"[0-9a-f]*"' | head -1)
REBAL_DIGEST=$(printf '%s' "$DUR_JSON" | grep -o '"digest":"[0-9a-f]*"' | head -1)
if [ -z "$REBAL_DIGEST" ] || [ "$REBAL_DIGEST" != "$PLAIN_DIGEST" ]; then
    echo "ci: rebalanced serve digest diverged: $REBAL_DIGEST vs $PLAIN_DIGEST" >&2
    exit 1
fi
echo "    rebalanced serve: digest matches the unrebalanced run"
# An anchorless mid-journal replay must refuse, not silently re-execute.
if ./target/release/hiphopc replay "$FLIGHT_DIR/durable_flight.jsonl" \
    --shards 2 --from 8 > /dev/null 2>&1; then
    echo "ci: replay --from 8 without a snapshot anchor must fail" >&2
    exit 1
fi
echo "    anchorless --from 8: refused as expected"
for wdt in u64 wide; do
    RECOVERY_JSON=$(./target/release/hiphopc replay "$FLIGHT_DIR/durable_flight.jsonl" \
        --shards 2 --from 8 --snapshot "$FLIGHT_DIR/pool_snapshot.jsonl" --cohort "$wdt")
    case "$RECOVERY_JSON" in
        *'"ok":true'*) : ;;
        *) echo "ci: cohort($wdt) recovery digest mismatch: $RECOVERY_JSON" >&2; exit 1 ;;
    esac
    case "$RECOVERY_JSON" in
        *'"ticks":8'*) : ;;
        *) echo "ci: cohort($wdt) recovery re-drove more than the suffix: $RECOVERY_JSON" >&2; exit 1 ;;
    esac
    echo "    cohort $wdt: recovered tick-8 checkpoint + 8-tick suffix, digests match"
done

echo "ci: all green"
