#!/usr/bin/env sh
# Local CI gate: everything a merge must pass, in the order that fails
# fastest. Run from the repository root:
#
#   sh scripts/check.sh
#
# The clippy step treats every warning as an error across the whole
# workspace (stub crates in third_party/ included); the bench smoke run
# (tiny shapes) is part of the p3d-bench unit tests, so `cargo test`
# already exercises the JSON-emitting benchmark path.
set -eu

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# --no-fail-fast: one red suite must not hide the result of another.
echo "==> cargo test --workspace --no-fail-fast"
cargo test --workspace -q --no-fail-fast

# Named explicitly so a future test-harness filter cannot silently drop
# them: the checkpoint robustness fuzz (truncation / bit flips /
# garbage must error, never panic or over-allocate) and the
# kill-and-resume bitwise-equivalence suite are merge requirements in
# their own right.
echo "==> checkpoint robustness fuzz"
cargo test -q -p p3d-nn --test checkpoint_fuzz

echo "==> kill-and-resume bitwise equivalence"
cargo test -q -p p3d-core --test resume

# The inference-engine merge requirements, named for the same reason:
# the fixed-point datapath property suite (now including the Q7.8
# rounding-contract audit: finish/saturating_mul/avg-pool all implement
# round-to-nearest, from_f32 non-finite policy), the Q7.8-vs-f32 golden
# differential conv tests (now including the functional-vs-cycle engine
# differential on random shapes/strides/pads/block masks and the
# AVX2-vs-scalar integer bitwise gate at the i16 rails), inference
# determinism across thread counts, and the zero-allocation
# steady-state contract. (The BENCH_inference.json smoke emission rides
# in the p3d-bench unit tests above; the batched-vs-sequential
# throughput gate is `-p p3d-bench --test inference_speedup`, also part
# of `cargo test --workspace`.)
echo "==> fixed-point datapath properties + rounding contracts"
cargo test -q -p p3d-tensor --test fixed_properties

echo "==> conv differentials: Q7.8 vs f32, functional vs cycle, AVX2 vs scalar"
cargo test -q -p p3d-fpga --test conv_differential

echo "==> inference determinism under load"
cargo test -q -p p3d-infer --test determinism

echo "==> zero-allocation steady state"
cargo test -q -p p3d-infer --test zero_alloc

# The packed-GEMM / block-sparse merge requirements, named for the same
# reason: the property suite pins the packed microkernel and the
# block-CSR kernel bitwise to the naive reference (edge tiles, zero
# skipping, masked-weight equivalence, refresh-after-update); the
# equivalence suite pins the block-sparse forward/backward/serving
# paths through the full network; the perf smoke gate (release build —
# debug timings would measure the optimiser, not the kernel) asserts
# the packed microkernel is at least 1.5x the seeded naive kernel on a
# fixed single-threaded shape; the sim-batching gate asserts the
# batched sim backend never regresses below its own sequential loop.
echo "==> packed GEMM + block-sparse properties (incl. AVX2 f32 bitwise gate)"
cargo test -q -p p3d-tensor --test gemm_properties

echo "==> block-sparse network equivalence"
cargo test -q -p p3d-core --test block_sparse_equivalence

echo "==> pruned-model serving equivalence"
cargo test -q -p p3d-infer --test pruned_serving

echo "==> inference speedup gates (f32 batched 1.1x, sim never below 1x)"
cargo test -q -p p3d-bench --test inference_speedup

echo "==> packed microkernel perf smoke gates (release: 1.5x naive, AVX2 1.3x scalar)"
cargo test -q --release -p p3d-tensor --test gemm_perf

# The fast-functional-sim merge requirement: the functional Q7.8 engine
# (flat i64 accumulation + AVX2 integer kernels) must stay bitwise
# identical to the cycle-approximate engine end to end — logits,
# prediction, full ConvStats — and, in release, serve at least 3x its
# per-clip throughput (best of paired interleaved ratios, which is
# biased upward: a noise burst in a pair's baseline half inflates it).
echo "==> functional sim-path bitwise identity + 3x speedup gate (release)"
cargo test -q --release -p p3d-bench --test sim_fast_speedup

# The persistent-pool merge requirements: the pool acceptance suite
# (bitwise-identical outputs across worker counts for all six parallel
# helpers, panic containment + worker replacement, nested-call serial
# degradation) and the release-mode thread-scaling gate (1-thread step
# bypasses the pool entirely; 2/4-thread step never slower than
# 1-thread beyond measurement noise — the spawn-per-call layer
# regressed to 0.76x at 4 threads, which this gate makes unmergeable).
echo "==> persistent-pool acceptance suite"
cargo test -q -p p3d-tensor --test parallel_pool

echo "==> thread-scaling gate (release)"
cargo test -q --release -p p3d-bench --test thread_scaling

# The resilient-serving merge requirements, named for the same reason:
# the chaos suite (seeded fault injection — worker panics, stalls, bit
# flips, saturation storms — with exactly-once resolution, balanced
# error budgets, and bitwise-unchanged non-faulted outputs) and the
# serving-boundary validation + supervision unit tests. Both run under
# the dev profile, where debug assertions, overflow checks and the
# NaN/Inf activation sentinels are all enabled — this is the
# debug-assertions pass for the serving layer.
echo "==> fault-injection chaos suite (debug assertions + sentinels on)"
cargo test -q -p p3d-infer --test chaos

echo "==> serving-boundary validation + worker supervision"
cargo test -q -p p3d-infer --lib

# The HTTP front-door merge requirements, named for the same reason:
# the wire-protocol fuzz suite (generated malformed traffic — truncated
# heads, hostile Content-Length values, split TCP segments, pipelined
# garbage, oversized bodies, header floods — must answer 4xx/5xx or
# close cleanly, never panic or allocate past the configured caps) and
# the loopback e2e suite (logits served over HTTP bitwise identical to
# in-process inference on both backends, chaos behind the wire keeps
# the error budget balanced, token buckets isolate greedy clients).
# Both run under the dev profile: this is the debug-assertions pass for
# the wire layer.
echo "==> HTTP wire-protocol fuzz (debug assertions on)"
cargo test -q -p p3d-infer --test http_fuzz

echo "==> HTTP loopback e2e: bitwise determinism, chaos, fairness"
cargo test -q -p p3d-infer --test http_e2e

# Release-mode soak smoke: ten seconds of mixed valid + malformed load
# against a live server, then shutdown must leave zero leaked threads
# (process thread count back to the pre-server baseline) and a balanced
# budget. Ignored by default so plain `cargo test` stays fast.
echo "==> HTTP soak smoke (release, ~10 s)"
cargo test -q --release -p p3d-infer --test http_soak -- --ignored

# The streaming-ingest merge requirements, named for the same reason:
# the P3DVID1 container format fuzz (truncated headers, corrupt CRCs,
# lying frame counts, hostile geometry must all error typed, never
# panic); the prefetch pipeline acceptance suite (bitwise identity to
# the serial reader across depths/worker counts, fault containment,
# arena recycling); the streaming zero-allocation proof (decode
# workers + ring hand-off + arena recycle perform zero heap
# allocations over a 20-clip mid-stream window, counted by a
# process-global allocator that sees worker threads too); and the
# release overlap gate (pipelined decode+infer at least 1.5x serial
# decode-then-infer at 2 and 4 threads, logits bitwise identical,
# zero arena growth after warm-up — debug builds still pin the
# bitwise + zero-growth half). The same clippy wall that guards the
# rest of the workspace is re-run scoped to the ingest crate so a
# future `--workspace` exclusion cannot silently drop it.
echo "==> P3DVID1 container format fuzz"
cargo test -q -p p3d-video-data --test vid_format_fuzz

echo "==> prefetch pipeline acceptance (bitwise vs serial reader, faults, recycling)"
cargo test -q -p p3d-video-data --test ingest_pipeline

echo "==> streaming ingest zero-allocation steady state"
cargo test -q -p p3d-video-data --test zero_alloc_ingest

echo "==> ingest overlap gate (release: pipelined 1.5x serial, bitwise, zero growth)"
cargo test -q --release -p p3d-bench --test ingest_overlap

echo "==> clippy, scoped to the ingest crate"
cargo clippy -p p3d-video-data --all-targets -- -D warnings

# The model-registry / hot-swap merge requirements, named for the same
# reason: the registry fuzz (garbage, truncations, bit flips — on the
# wire and on disk — must reject typed and quarantine, never panic or
# corrupt the servable set); the SIGKILL crash-safety suite (kills
# mid-publish and mid-hot-swap leave the registry loadable, tmp
# leftovers swept on reopen); the connection-guard + state-aware
# health suite (stalled readers reaped and counted, healthz reports
# ok / degraded / draining); swap-under-load (exactly-once and bitwise
# provenance across concurrent hot-swaps, corrupt pushes rejected with
# serving undisturbed); the canary gate (poisoned candidates roll back
# automatically, healthy ones promote); the response-cache e2e
# (bitwise-identical hits keyed by model hash, telemetry adds up); and
# the swap-storm chaos suite (rapid swaps + corrupt pushes raced
# against injected worker faults). All dev-profile: this is the
# debug-assertions pass for the model plane. The clippy wall is re-run
# scoped to the infer crate so a future workspace exclusion cannot
# silently drop the new modules.
echo "==> model-registry fuzz (garbage / truncation / bit-flip quarantine)"
cargo test -q -p p3d-infer --test registry_fuzz

echo "==> registry SIGKILL crash safety (mid-publish, mid-hot-swap)"
cargo test -q -p p3d-infer --test registry_crash

echo "==> connection guards + state-aware healthz (ok/degraded/draining)"
cargo test -q -p p3d-infer --test http_guard

echo "==> hot-swap under load: exactly-once, bitwise provenance, corrupt pushes"
cargo test -q -p p3d-infer --test swap_under_load

echo "==> canary gate: auto-rollback on poison, promote on health"
cargo test -q -p p3d-infer --test canary_rollback

echo "==> response cache e2e: bitwise hits keyed by model hash"
cargo test -q -p p3d-infer --test respcache_e2e

echo "==> swap-storm chaos: rapid swaps + corrupt pushes under faults"
cargo test -q -p p3d-infer --test chaos_swap

echo "==> clippy, scoped to the infer crate"
cargo clippy -p p3d-infer --all-targets -- -D warnings

# Release-mode swap soak gate: sustained client load across at least
# three hot-swaps — zero dropped or duplicated requests, bitwise
# provenance throughout, no thread leak. Ignored by default so plain
# `cargo test` stays fast.
echo "==> hot-swap soak gate (release)"
cargo test -q --release -p p3d-infer --test swap_soak -- --ignored

echo "All checks passed."
