#!/usr/bin/env bash
# Packed-kernel smoke test: the weight-stationary packed kernels must be
# bit-identical to the unpacked dense kernels for every shape, sparsity
# and thread count (the packed_diff differential harness), packs must be
# built once per network and survive weight mutation via re-pack (the
# alloc_free reuse/staleness gates), a batch-1 forward must not fork
# (crates/snn/tests/forks.rs), and the kernel_bench acceptance gate must
# show zero counted-work deltas and zero batch-1 forks with the
# BENCH_kernels.json artifact present and well-formed. Wall-clock is
# never gated — this runs on a 1-CPU container where only counted work
# and bit-identity are reliable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== packed-kernel differential harness (tensor) =="
ULL_THREADS=1 cargo test -p ull-tensor --test packed_diff -q
ULL_THREADS=4 cargo test -p ull-tensor --test packed_diff -q

echo "== pack reuse, staleness and allocation gates (snn) =="
ULL_THREADS=1 cargo test -p ull-snn --test alloc_free -q
ULL_THREADS=1 cargo test -p ull-snn packing -q

echo "== a batch-1 forward never forks; a batch-8 forward forks once (snn) =="
ULL_THREADS=2 cargo test -p ull-snn --test forks -q
ULL_THREADS=4 cargo test -p ull-snn --test forks -q

echo "== packed toggle is inert (disabled run matches default) =="
# The sparse suite runs the forward through ull_snn::packing::packed_for,
# the only reader of the toggle; packed_diff calls the kernels directly.
ULL_PACKED=0 cargo test -p ull-snn --test sparse -q

echo "== kernel acceptance gate =="
cargo build --release -p ull-bench --bin kernel_bench
./target/release/kernel_bench --gate

echo "== artifact check =="
test -s BENCH_kernels.json
grep -q '"pack_builds": 1' BENCH_kernels.json
grep -q '"macs_delta": 0' BENCH_kernels.json
grep -q '"acs_delta": 0' BENCH_kernels.json
grep -q '"logits_bit_identical": true' BENCH_kernels.json
grep -q '"b1_forks": 0' BENCH_kernels.json

echo "kernel smoke test passed"
