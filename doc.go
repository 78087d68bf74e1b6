// Package repro is a from-scratch Go reproduction of "Input-Dependent
// Power Usage in GPUs" (Gregersen, Patel, Choukse — SC 2024,
// arXiv:2409.18324): a bit-level GPU GEMM power simulator with an
// activity-based power model, a DCGM-like telemetry layer, and a full
// experiment harness that regenerates every figure of the paper's
// evaluation. The measurement chain (tiling → activity → power model)
// is wired once, in internal/core's RunChain; the harness, the
// prediction service and the command-line tools all run through it.
//
// Beyond the batch reproduction, internal/serve exposes the paper's §V
// input-dependent power model as a concurrent prediction service: a
// predictor registry that lazily trains one power.Predictor per
// (device, dtype) from a reduced experiment sweep, an LRU cache keyed
// by (device, dtype, canonical pattern, size) that lets repeated
// queries skip the GEMM-simulation hot path, and a sharded worker pool
// sized by GOMAXPROCS. The package is layered transport-free core
// first: serve.Core implements the Backend interface and serve.Handler
// mounts any Backend behind the five endpoints (/predict, /predict/batch, /train,
// /healthz, /metrics — see docs/API.md). cmd/powerserve serves one
// Core; internal/cluster shards the prediction keyspace across many
// (deterministic consistent-hash ring, fan-out/fan-in batch routing,
// shard failover) and cmd/powerrouter fronts such a ring with the
// identical API — sharded answers are byte-identical to single-node
// answers. examples/loadgen drives either topology with a mixed
// pattern workload in single-shot or batched mode, reporting
// throughput, latency percentiles and cache hit-rate (-shards N
// measures ring-vs-single scaling in-process).
//
// internal/fleet scales the effect to datacenter operations: a
// deterministic trace-driven simulator schedules GEMM job streams onto
// heterogeneous device fleets, integrates power and temperature,
// enforces aggregate power caps and thermal throttling, and resolves
// per-job operating points through the batched prediction path (one
// simulation per distinct key, however many jobs are queued).
// cmd/fleetsim is its CLI and examples/fleet the walkthrough.
//
// internal/sched makes fleet placement pluggable: policies observe
// per-device backlog, temperature and the Oracle's predicted operating
// points and return placements — EarliestCompletion (the historical
// scheduler, byte-identical by golden test), PowerPack (pack hot jobs
// under the cap), ThermalSpread and EnergyGreedy. sched.Compare
// replays one trace through several policies into an exact
// latency/energy/throttle front table (fleetsim -policy/-compare,
// examples/schedfront).
//
// # Engine architecture
//
// The simulation hot path is organized around precomputation and
// locality, with bit-identical results to the straightforward
// per-element formulation (exhaustive softfloat tests, the delta ≡
// rescan equivalence tests and fuzz targets that hold each fast path
// to its reference prove it):
//
//   - internal/softfloat carries 65,536-entry lookup tables built at
//     init from the bit-exact conversions: F16→F32 decode (F16ToF32 is
//     a table read) and per-pattern significand Hamming weights for
//     FP16/BF16/INT8. F32ToF16 and F32ToI8 use branch-light exact-RNE
//     magic-number formulations, verified exhaustively against their
//     field-by-field references.
//   - internal/activity computes all exact terms in one fused scan per
//     operand (toggles, per-k significand sums via the LUTs, Hamming
//     weight, non-zero counts) and walks sampled product/accumulator
//     trajectories grouped by output column, with positions drawn
//     without replacement.
//   - internal/rng generates Gaussians with a 256-layer ziggurat (one
//     64-bit draw per variate on the fast path); internal/experiments
//     caches base matrices per (seed, operand side, encoding class)
//     within a Run so sweep points derive transform variants from one
//     generation.
//
// See README.md for the layout and quickstart, docs/ARCHITECTURE.md
// for the package map, the bit-identity guarantee, the caching layers
// and the measured before/after performance table, and docs/API.md for
// the serving endpoints (every documented example body is round-tripped
// through the real handler by internal/serve's apidoc test).
//
// The benchmarks in bench_test.go regenerate each figure at a reduced
// scale (one per table/figure of the paper); cmd/figures runs the
// full-scale campaign (with -cpuprofile/-memprofile for perf work).
// CI (.github/workflows/ci.yml) gates gofmt, vet, doc-comment coverage
// (cmd/doccheck), build (examples included), race tests, a bench smoke
// pass whose JSON output is kept as a per-commit BENCH_*.json artifact
// (cmd/benchdiff fails CI on a >25% regression in any figure or
// per-dtype activity benchmark), a deterministic capped fleetsim smoke
// run (byte-identical repeat and recorded-trace replay) uploaded as an
// artifact, and a sharded serving smoke that cmp's a fixed batch
// replayed through a 2-shard powerrouter against a single powerserve.
package repro
