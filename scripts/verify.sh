#!/usr/bin/env bash
# Tier-1 verify, hermetically: the workspace must build and test with
# zero registry access. --offline is the point — a dependency on a
# non-vendored crate regresses exactly this command, which is how the
# seed state (rand/proptest/criterion unfetchable) broke the build.
# Cargo.lock is committed; --locked refuses silent re-resolution.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --offline --locked
cargo test -q --workspace --offline --locked
cargo clippy --workspace --offline --locked -- -D warnings

# Host-perf smoke: the wall-clock bench must run end to end and emit
# parseable JSON (tiny sizes; this is a plumbing check, not a perf gate).
HOSTPERF_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_hostperf
if command -v jq >/dev/null 2>&1; then
    jq -e '.layouts | length > 0' BENCH_hostperf.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_hostperf.json")); sys.exit(0 if d["layouts"] else 1)'
fi
echo "BENCH_hostperf.json OK"

# Control-plane smoke: same plumbing check for the pending-index bench
# (it also re-asserts linear/indexed plan identity on every window).
CTRLPERF_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_ctrlperf
if command -v jq >/dev/null 2>&1; then
    jq -e '.depths | length > 0' BENCH_ctrlperf.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_ctrlperf.json")); sys.exit(0 if d["depths"] else 1)'
fi
echo "BENCH_ctrlperf.json OK"

# Trace smoke: record a fig07-class run, replay it in lockstep, and
# localize an injected perturbation — the bench asserts all three, and
# the JSON must confirm the replay was bit-identical (DESIGN.md §14).
TRACE_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_trace
if command -v jq >/dev/null 2>&1; then
    jq -e '.replay.identical == true' BENCH_trace.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_trace.json")); sys.exit(0 if d["replay"]["identical"] else 1)'
fi
echo "BENCH_trace.json OK"

# Crash smoke: journaled run + seeded crash/restart sweep — the bench
# asserts virtual-time identity and crash coverage; the JSON must show
# zero exactly-once violations (DESIGN.md §15). The 5% record-overhead
# bar is full-mode only (smoke timings are too short to be meaningful).
CRASH_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_crash
if command -v jq >/dev/null 2>&1; then
    jq -e '.exactly_once.violations == 0 and .exactly_once.crashes > 0' BENCH_crash.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_crash.json"))["exactly_once"]; sys.exit(0 if d["violations"] == 0 and d["crashes"] > 0 else 1)'
fi
echo "BENCH_crash.json OK"

# Integrity smoke: verified copies under injected silent corruption —
# the bench asserts clean-run virtual-time identity across policies and
# zero escapes under Full; the JSON must confirm no corruption escaped
# (DESIGN.md §16). The 5% verify-overhead bar is full-mode only.
INTEGRITY_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_integrity
if command -v jq >/dev/null 2>&1; then
    jq -e '[.coverage[] | select(.policy == "full")] | all(.escapes == 0 and .detected > 0)' BENCH_integrity.json >/dev/null
else
    python3 -c 'import json,sys; c=[x for x in json.load(open("BENCH_integrity.json"))["coverage"] if x["policy"]=="full"]; sys.exit(0 if c and all(x["escapes"]==0 and x["detected"]>0 for x in c) else 1)'
fi
echo "BENCH_integrity.json OK"

# Shard-scale smoke: the sharded control plane must sweep 1→N shards
# end to end, drain every pin, and replay the same seed to a bit-identical
# outcome at 4 shards (DESIGN.md §17). The ≥3× goodput bar is full-mode
# only — smoke workloads are too small for the speedup to be meaningful.
SHARDSCALE_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_shardscale
if command -v jq >/dev/null 2>&1; then
    jq -e '(.sweep | length > 0) and ([.summary[] | select(.name == "shard_determinism")] | all(.value == 1))' BENCH_shardscale.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_shardscale.json")); det=[r for r in d["summary"] if r["name"]=="shard_determinism"]; sys.exit(0 if d["sweep"] and det and all(r["value"]==1 for r in det) else 1)'
fi
echo "BENCH_shardscale.json OK"

# Soak smoke: the O(active)-per-round control plane must keep its host
# round cost flat as idle registrants grow 10x (and the two sizes must
# land bit-identical runs), produce ordered latency percentiles from a
# non-empty sample population, and replay the same seed bit-identically
# (DESIGN.md §18). The ≤2x flatness and p999 bars are full-mode only —
# smoke tenant counts are too small for the idle mass to dominate.
SOAK_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_soak
if command -v jq >/dev/null 2>&1; then
    jq -e '(([.points[] | select(.settled > 0)] | length) == (.points | length))
       and ([.points[] | .p50_ns <= .p99_ns and .p99_ns <= .p999_ns] | all)
       and ([.summary[] | select(.name == "soak_determinism")] | all(.value == 1))
       and ([.summary[] | select(.name == "round_cost_flatness_1e4_1e5")] | all(.value > 0))' BENCH_soak.json >/dev/null
else
    python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_soak.json"))
ok = all(p["settled"] > 0 and p["p50_ns"] <= p["p99_ns"] <= p["p999_ns"] for p in d["points"])
det = [r for r in d["summary"] if r["name"] == "soak_determinism"]
flat = [r for r in d["summary"] if r["name"] == "round_cost_flatness_1e4_1e5"]
ok = ok and det and all(r["value"] == 1 for r in det) and flat and all(r["value"] > 0 for r in flat)
sys.exit(0 if ok else 1)
PY
fi
echo "BENCH_soak.json OK"

# Repro-corpus replay: every committed .cptr trace under tests/repros/
# must replay through the current build without divergence — a frozen
# regression net over the corruption-draw wire format and the service's
# round structure.
REPRO_REPLAY=1 cargo test -q --offline --locked --test integrity repro_corpus_replays_identically
# The idle corpus (tests/repros/idle-*.cptr, recorded before idle ticks
# existed) pins the idle spin's timeline: lockstep replay plus golden end
# time, stats vector, control-plane counters and per-core busy time.
REPRO_REPLAY=1 cargo test -q --offline --locked --test idle_corpus idle_corpus_replays_identically
echo "repro corpus OK"

# Core differential (DESIGN.md §19), optimized: the driverless core must
# reproduce the task-driven reference core's schedule exactly.
cargo test -q --release --offline --locked -p copier-bench --test core_differential
echo "core differential OK"
