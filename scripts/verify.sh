#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
# --workspace: the smokes below invoke target/release/sbcast directly —
# a root-package build would leave it stale.
cargo build --release --workspace

echo "==> cargo test -q --workspace --release"
# --workspace: a bare `cargo test` at the root tests only the root
# package, not the crates' unit tests. --release reuses the build above.
cargo test -q --workspace --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps (warnings denied, first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p skyscraper-broadcasting -p vod-units -p sb-core -p sb-pyramid \
    -p sb-sim -p sb-workload -p sb-batching -p sb-metrics -p sb-control \
    -p sb-resilience -p sb-analysis -p sb-cli -p sb-bench

echo "==> perfbench correctness (the benchmark's own checks, seed 1, one second each)"
# Runs the repository benchmark briefly on three workloads; the last
# stdout line of each run is its JSON report, which must say
# "correct": true (byte-identity and conservation checks passed).
for w in sb-grid hb-receive-all control-outage; do
    last="$(cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 2>/dev/null | tail -n 1)"
    case "$last" in
        *'"correct": true'*) ;;
        *) echo "perfbench $w is not correct: $last"; exit 1 ;;
    esac
done

echo "==> popularity-shift smoke (static vs dynamic control)"
cargo run -q -p sb-cli --bin sbcast -- control --horizon 300 --seeds 11 --threads 2

echo "==> resilience smoke (fault study, determinism across reruns)"
res_a="$(mktemp)"; res_b="$(mktemp)"
thr_dir="$(mktemp -d)"
trap 'rm -f "$res_a" "$res_b"; rm -rf "$thr_dir"' EXIT
cargo run -q -p sb-cli --bin sbcast -- resilience --horizon 200 --seeds 7 --threads 2 \
    2>/dev/null > "$res_a"
cargo run -q -p sb-cli --bin sbcast -- resilience --horizon 200 --seeds 7 --threads 2 \
    2>/dev/null > "$res_b"
diff -u "$res_a" "$res_b"

echo "==> throughput smoke (streaming core, determinism across --threads 1/2/4)"
for n in 1 2 4; do
    cargo run -q -p sb-cli --bin sbcast -- throughput --samples 40 --threads "$n" \
        --json "$thr_dir/thr-$n.json" 2>/dev/null > "$thr_dir/thr-$n.out"
done
test -s "$thr_dir/thr-1.json" || { echo "BENCH_throughput.json is empty"; exit 1; }
grep -q '"peak_agenda"' "$thr_dir/thr-1.json"
grep -q '"churn"' "$thr_dir/thr-1.json"
diff -u "$thr_dir/thr-1.json" "$thr_dir/thr-2.json"
diff -u "$thr_dir/thr-1.json" "$thr_dir/thr-4.json"
diff -u "$thr_dir/thr-1.out" "$thr_dir/thr-2.out"
diff -u "$thr_dir/thr-1.out" "$thr_dir/thr-4.out"

echo "==> scale smoke (sharded core, determinism across --shards 1/2/4 x --threads 1/4)"
scale_dir="$(mktemp -d)"
trap 'rm -f "$res_a" "$res_b"; rm -rf "$thr_dir" "$scale_dir"' EXIT
for s in 1 2 4; do
    for n in 1 4; do
        cargo run -q -p sb-cli --bin sbcast -- scale --sessions 3000 --horizon 300 \
            --shards "$s" --threads "$n" \
            --json "$scale_dir/scale-$s-$n.json" 2>/dev/null > "$scale_dir/scale-$s-$n.out"
    done
done
test -s "$scale_dir/scale-1-1.json" || { echo "BENCH_scale.json is empty"; exit 1; }
grep -q '"shard_peak_agenda"' "$scale_dir/scale-1-1.json"
grep -q '"sessions_per_sim_second"' "$scale_dir/scale-1-1.json"
for s in 1 2 4; do
    for n in 1 4; do
        diff -u "$scale_dir/scale-1-1.json" "$scale_dir/scale-$s-$n.json"
        diff -u "$scale_dir/scale-1-1.out" "$scale_dir/scale-$s-$n.out"
    done
done

echo "==> scenario smoke (metro pack, determinism across --shards x --threads)"
scn_dir="$(mktemp -d)"
trap 'rm -f "$res_a" "$res_b"; rm -rf "$thr_dir" "$scale_dir" "$scn_dir"' EXIT
for combo in "1 1" "2 4" "4 2"; do
    read -r s n <<<"$combo"
    cargo run -q --release -p sb-cli --bin sbcast -- scenario --profile smoke \
        --shards "$s" --threads "$n" \
        --json "$scn_dir/scn-$s-$n.json" 2>/dev/null > "$scn_dir/scn-$s-$n.out"
done
test -s "$scn_dir/scn-1-1.json" || { echo "BENCH_scenario.json is empty"; exit 1; }
grep -q '"demand_share"' "$scn_dir/scn-1-1.json"
grep -q '"dynamic_report"' "$scn_dir/scn-1-1.json"
grep -q '"shard_peak_agenda"' "$scn_dir/scn-1-1.json"
diff -u "$scn_dir/scn-1-1.json" "$scn_dir/scn-2-4.json"
diff -u "$scn_dir/scn-1-1.json" "$scn_dir/scn-4-2.json"
diff -u "$scn_dir/scn-1-1.out" "$scn_dir/scn-2-4.out"
diff -u "$scn_dir/scn-1-1.out" "$scn_dir/scn-4-2.out"

echo "==> recovery smoke (kill/resume byte identity over --shards)"
# The flagship crash-recovery invariant through the CLI: a supervised run
# whose shards are killed and resumed from checkpoints must print
# "identical to uninterrupted execute: yes" (the binary exits nonzero on
# divergence) at every shard count.
rec_dir="$(mktemp -d)"
trap 'rm -f "$res_a" "$res_b"; rm -rf "$thr_dir" "$scale_dir" "$scn_dir" "$rec_dir"' EXIT
for s in 1 2 4; do
    chaos="kill:0@ckpt:1;kill:0@tick:40000"
    if [ "$s" -gt 1 ]; then chaos="$chaos;kill:1@ckpt:2"; fi
    cargo run -q --release -p sb-cli --bin sbcast -- recovery \
        --sessions 2000 --horizon 200 --cadence 25 --shards "$s" --threads 2 \
        --chaos "$chaos" 2>/dev/null > "$rec_dir/rec-$s.out"
    grep -q 'identical to uninterrupted execute: yes' "$rec_dir/rec-$s.out"
done

echo "==> corrupt-checkpoint smoke (checksum rejection + fall-back, then graceful degradation)"
cargo run -q --release -p sb-cli --bin sbcast -- recovery \
    --sessions 2000 --horizon 200 --cadence 25 --shards 2 --threads 2 \
    --chaos "corrupt:1@ckpt:2;kill:1@ckpt:2" 2>/dev/null > "$rec_dir/rec-corrupt.out"
grep -q 'corrupt rejected 1' "$rec_dir/rec-corrupt.out"
grep -q 'identical to uninterrupted execute: yes' "$rec_dir/rec-corrupt.out"
# A shard that exhausts its restart budget degrades to an explicit
# partial run with the lost shard named — exit 0, never a panic.
cargo run -q --release -p sb-cli --bin sbcast -- recovery \
    --sessions 2000 --horizon 200 --cadence 25 --shards 2 --threads 2 \
    --chaos "kill:1@ckpt:1;kill:1@ckpt:2" --retry 1 --retry-attempts 1 \
    2>/dev/null > "$rec_dir/rec-partial.out"
grep -q 'PARTIAL RUN: 1 shard(s) lost' "$rec_dir/rec-partial.out"
grep -q 'shard 1: lost after 1 attempt(s)' "$rec_dir/rec-partial.out"
# And a corrupted chaos spec / zero cadence fail with typed errors.
if cargo run -q --release -p sb-cli --bin sbcast -- recovery --cadence 0 2>"$rec_dir/err0"; then
    echo "cadence 0 must be rejected"; exit 1
fi
grep -q 'checkpoint cadence is 0 sessions' "$rec_dir/err0"
if cargo run -q --release -p sb-cli --bin sbcast -- recovery --chaos "corrupt:0@tick:9" \
    2>"$rec_dir/err1"; then
    echo "corrupt@tick must be rejected"; exit 1
fi
grep -q 'corruption targets checkpoints, not ticks' "$rec_dir/err1"

echo "==> recovery sweep artifact (BENCH_recovery.json, cadence trade)"
cargo run -q --release -p sb-cli --bin sbcast -- recovery --mode sweep --profile smoke \
    --threads 4 --json "$rec_dir/rec-sweep.json" 2>/dev/null > "$rec_dir/rec-sweep.out"
test -s "$rec_dir/rec-sweep.json" || { echo "BENCH_recovery.json is empty"; exit 1; }
grep -q '"replayed_sessions"' "$rec_dir/rec-sweep.json"
grep -q '"identical": true' "$rec_dir/rec-sweep.json"

echo "==> frontier smoke (scheme zoo Pareto frontier, 4-way over --shards x --threads)"
# The frontier artifact must be byte-identical — JSON and stdout — for
# every knob combination: {shards 1, 2} x {threads 1, 2}.
fr_dir="$(mktemp -d)"
trap 'rm -f "$res_a" "$res_b"; rm -rf "$thr_dir" "$scale_dir" "$scn_dir" "$rec_dir" "$fr_dir"' EXIT
for combo in "1 1" "1 2" "2 1" "2 2"; do
    read -r s n <<<"$combo"
    cargo run -q --release -p sb-cli --bin sbcast -- frontier --profile smoke \
        --shards "$s" --threads "$n" \
        --json "$fr_dir/fr-$s-$n.json" 2>/dev/null > "$fr_dir/fr-$s-$n.out"
done
test -s "$fr_dir/fr-1-1.json" || { echo "BENCH_frontier.json is empty"; exit 1; }
grep -q '"on_frontier_analytic"' "$fr_dir/fr-1-1.json"
grep -q '"sim_jitter_free"' "$fr_dir/fr-1-1.json"
grep -q 'CTIFB' "$fr_dir/fr-1-1.json"
grep -q 'AQHB' "$fr_dir/fr-1-1.json"
for combo in "1 2" "2 1" "2 2"; do
    read -r s n <<<"$combo"
    diff -u "$fr_dir/fr-1-1.json" "$fr_dir/fr-$s-$n.json"
    diff -u "$fr_dir/fr-1-1.out" "$fr_dir/fr-$s-$n.out"
done
# SB survives both frontiers at the paper operating point (B=320, M=10).
grep -q 'AS' "$fr_dir/fr-1-1.out"
# The buggy-HB opt-in surfaces the refuted point as infeasible.
cargo run -q --release -p sb-cli --bin sbcast -- frontier --profile smoke --buggy-hb yes \
    --json "$fr_dir/fr-hb.json" 2>/dev/null > "$fr_dir/fr-hb.out"
grep -q '"sim_jitter_free": false' "$fr_dir/fr-hb.json"

echo "==> frontier paper-grid artifact (smoke-sized sessions)"
./target/release/sbcast frontier --sessions 8 --threads 4 --shards 2 \
    --json "$fr_dir/fr-paper.json" > "$fr_dir/fr-paper.out" 2>/dev/null
test -s "$fr_dir/fr-paper.json" || { echo "frontier paper-grid JSON missing"; exit 1; }
grep -q '"cells"' "$fr_dir/fr-paper.json"

echo "==> distribution smoke (distributed tier, 4-way over --shards x --threads)"
# The distributed-tier artifact must be byte-identical — JSON and stdout —
# for every knob combination: {shards 1, 2} x {threads 1, 2}.
dist_dir="$(mktemp -d)"
trap 'rm -f "$res_a" "$res_b"; rm -rf "$thr_dir" "$scale_dir" "$scn_dir" "$rec_dir" "$fr_dir" "$dist_dir"' EXIT
for combo in "1 1" "1 2" "2 1" "2 2"; do
    read -r s n <<<"$combo"
    cargo run -q --release -p sb-cli --bin sbcast -- distribution --profile smoke \
        --shards "$s" --threads "$n" \
        --json "$dist_dir/dist-$s-$n.json" 2>/dev/null > "$dist_dir/dist-$s-$n.out"
done
test -s "$dist_dir/dist-1-1.json" || { echo "BENCH_distribution.json is empty"; exit 1; }
grep -q '"HotHead"' "$dist_dir/dist-1-1.json"
grep -q '"peer_windows"' "$dist_dir/dist-1-1.json"
grep -q '"savings_vs_naive"' "$dist_dir/dist-1-1.json"
grep -q '"bound_mbps"' "$dist_dir/dist-1-1.json"
for combo in "1 2" "2 1" "2 2"; do
    read -r s n <<<"$combo"
    diff -u "$dist_dir/dist-1-1.json" "$dist_dir/dist-$s-$n.json"
    diff -u "$dist_dir/dist-1-1.out" "$dist_dir/dist-$s-$n.out"
done
# All four placement policies price both peer modes in the stdout table.
for policy in full partitioned hothead proportional; do
    grep -q "^$policy" "$dist_dir/dist-1-1.out"
done

echo "==> distribution paper-grid artifact (default artifact name)"
sbcast_bin="$PWD/target/release/sbcast"
(cd "$dist_dir" && "$sbcast_bin" distribution --threads 4 --shards 2 > dist-paper.out 2>/dev/null)
test -s "$dist_dir/BENCH_distribution.json" || { echo "BENCH_distribution.json missing"; exit 1; }
grep -q '"savings_vs_naive"' "$dist_dir/BENCH_distribution.json"

echo "==> release profile keeps integer overflow checks on"
grep -A2 '^\[profile\.release\]' Cargo.toml | grep -q 'overflow-checks = true'

echo "==> scale release smoke (>= 10M streamed sessions)"
# 2.2M-session grid: 4 cells + the flagship pass = 11M streamed sessions.
./target/release/sbcast scale --shards 4 --threads 4 --sessions 2200000 \
    --json "$scale_dir/scale-full.json" > "$scale_dir/scale-full.out" 2>/dev/null
grep -q '"total_sessions": 2200000' "$scale_dir/scale-full.json"

echo "==> scenario paper-grid artifact"
./target/release/sbcast scenario --shards 2 --threads 4 \
    --json "$scn_dir/scn-paper.json" > "$scn_dir/scn-paper.out" 2>/dev/null
grep -q '"flash"' "$scn_dir/scn-paper.json"

echo "==> criterion benches compile against the vendored deps"
cargo bench -p sb-bench --no-run -q

echo "==> doc lint (shipped docs name the shipped interfaces)"
grep -q '^## 11\. Sharded scale-out and the one-RunConfig API' DESIGN.md
grep -q 'shard_invariance' DESIGN.md
grep -q '^## 12\. The engine.s event store' DESIGN.md
grep -q 'PB channels span shards' DESIGN.md
grep -q 'overflow' DESIGN.md
grep -q 'sbcast -- scale' README.md
grep -q 'BENCH_scale.json' README.md
grep -q 'perfbench/' README.md
grep -q 'BENCHMARK.json' README.md
if grep -q -- '--agenda' README.md; then echo "README still documents --agenda"; exit 1; fi
grep -q '^## 13\. The metropolitan scenario pack' DESIGN.md
grep -q 'scenario_invariance' DESIGN.md
grep -q 'region_slots' DESIGN.md
grep -q 'sbcast -- scenario' README.md
grep -q 'BENCH_scenario.json' README.md
grep -q '^## 14\. Checkpoint/restore and the crash-recovery supervisor' DESIGN.md
grep -q 'SBCKPT' DESIGN.md
grep -q 'checkpoint_restore' DESIGN.md
grep -q 'recovery_supervisor' DESIGN.md
grep -q 'sbcast -- recovery' README.md
grep -q 'BENCH_recovery.json' README.md
grep -q '\-\-chaos' README.md
grep -q '^## 15\. The scheme zoo, completed: CTIFB, AQHB and the automated frontier' DESIGN.md
grep -q 'PlanIndex' DESIGN.md
grep -q 'sbcast -- frontier' README.md
grep -q 'BENCH_frontier.json' README.md
grep -q '^## 16\. The distributed tier: placement, routing and peer assist' DESIGN.md
grep -q 'PlacementPolicy' DESIGN.md
grep -q 'source-once' DESIGN.md
grep -q 'Study. trait' DESIGN.md
grep -q 'sbcast -- distribution' README.md
grep -q 'BENCH_distribution.json' README.md
grep -q '\-\-policies' README.md

echo "verify: OK"
