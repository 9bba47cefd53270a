#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, a lint gate, a
# rustdoc gate (every doc warning, e.g. a broken intra-doc link, fails), the
# benchmark's own build and self-test (perfbench is a separate
# workspace, so the workspace build never compiles it), a checked
# strategy sweep (online invariant sanitizer armed), a parallel-runner
# smoke test, a checked fault-injection chaos smoke, a snapshot/fork
# smoke (`figures fork_smoke`: forked branches bit-identical to
# from-scratch runs across strategies and fault profiles), a fleet-campaign smoke
# (16-host datacenter with churn and adversarial tenants; asserts the
# degradation contract per cell and ratchets its events/sec), a
# fleet incremental-parity gate (--parity re-runs the smoke campaign
# with the dirty-host carry-over and result cache disabled and
# asserts bit-identical SLO tables), a 1000-host fleet-scale pass
# (ratchets *effective* events/sec — logical volume per wall second —
# and enforces the deterministic >=5x incrementality floor), and a
# serving-campaign smoke (open-loop latency-SLO service under
# interference; asserts every cell completed requests, once with the
# sanitizer armed and once recording/ratcheting its events/sec).
# Also regenerates BENCH_runner.json (via `figures perf --check-perf`,
# which times the sequential and parallel phases plus the queue
# micro-benchmark, and fails the build on a sequential-over-parallel
# speedup below 0.85, on a queue-throughput drop below the timer-wheel
# floor, or on any phase falling past the ratchet tolerance of its best
# matching BENCH_history.jsonl record) and records the total
# verification wall-clock in its `verify_wall_s` field. perf, fleet and
# serving share one record-and-ratchet path; the --check and --parity
# passes neither append to BENCH_history.jsonl nor ratchet.
#
# Usage: scripts/verify.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

start=$(date +%s.%N)

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo test --workspace -q =="
cargo test --workspace -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== perfbench self-test (benchmark build + references) =="
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== figures checked sweep (invariant sanitizer, all strategies) =="
./target/release/figures core --quick --check --jobs 2 >/dev/null

echo "== figures smoke (parallel fan-out) =="
./target/release/figures core --quick --seeds 2 --jobs 2 >/dev/null

echo "== figures chaos (fault-injection campaign, sanitizer armed) =="
./target/release/figures chaos --quick --check --jobs 2 >/dev/null

echo "== figures fork smoke (snapshot/fork bit-identity) =="
./target/release/figures fork_smoke --quick --jobs 2 >/dev/null

echo "== figures fleet smoke (sanitizer armed, degradation contract) =="
./target/release/figures fleet --smoke --check --jobs 2 >/dev/null

echo "== figures fleet smoke (perf record + events/sec ratchet) =="
./target/release/figures fleet --smoke --check-perf --jobs 2 >/dev/null

echo "== figures fleet smoke (incremental parity: elided == full) =="
./target/release/figures fleet --smoke --parity --jobs 2 >/dev/null

echo "== figures fleet scale (1000 hosts; effective events/sec ratchet) =="
./target/release/figures fleet --hosts 1000 --check-perf --jobs 2 >/dev/null

echo "== figures serving smoke (sanitizer armed, cell contracts) =="
./target/release/figures serving --smoke --check --jobs 2 >/dev/null

echo "== figures serving smoke (perf record + events/sec ratchet) =="
./target/release/figures serving --smoke --check-perf --jobs 2 >/dev/null

echo "== figures perf (regression gate; writes BENCH_runner.json) =="
./target/release/figures perf --quick --jobs 2 --check-perf

wall=$(echo "$start $(date +%s.%N)" | awk '{printf "%.3f", $2 - $1}')

# `figures perf` leaves verify_wall_s null for us to fill in.
if [ -f BENCH_runner.json ]; then
    sed -i "s/\"verify_wall_s\": null/\"verify_wall_s\": ${wall}/" BENCH_runner.json
fi

echo "verify OK in ${wall}s"
