#!/usr/bin/env bash
# Resilience smoke test: run the fault-injection determinism suite at two
# thread counts, then the resilience_sweep acceptance gate (tiny scale):
# watchdog detection >= 90 % at BER 1e-2 with zero false positives over 20
# clean checks, anytime inference saving steps within 1 accuracy point,
# and the BENCH_resilience.json artifact present and well-formed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fault determinism across thread counts =="
ULL_THREADS=1 cargo test -p ull-robust -q
ULL_THREADS=4 cargo test -p ull-robust --test determinism -q
ULL_THREADS=4 cargo test -p ull-robust --test forward_until -q

echo "== resilience acceptance gate (tiny scale) =="
cargo build --release -p ull-bench --bin resilience_sweep
./target/release/resilience_sweep --gate

echo "== artifact check =="
test -s BENCH_resilience.json
grep -q '"watchdog"' BENCH_resilience.json
grep -q '"anytime"' BENCH_resilience.json
grep -q '"cells"' BENCH_resilience.json

echo "resilience smoke test passed"
