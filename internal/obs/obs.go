// Package obs is the observability layer under the serving and fleet
// stack: counters and gauges, latency histograms, request tracing and
// Prometheus text exposition. It is deliberately tiny and
// dependency-free (stdlib plus the house RNG) so every other layer can
// use it without import ceremony.
//
// Four pieces:
//
//   - MetricSet: named Counters, Gauges (with high-water marks) and
//     Histograms, created on first use. Snapshot is the flat JSON
//     /metrics map; PromSnapshot feeds the exposition.
//
//   - Histogram: a lock-cheap log-bucketed distribution. Bucket
//     boundaries are fixed at compile time — 16 unit-wide buckets for
//     values 0–15, then four sub-buckets per power-of-two octave — so
//     quantile estimates are deterministic functions of the counts.
//     Observe is a pair of atomic adds; there is no lock on the hot
//     path.
//
//   - Tracing: Span identities are drawn from a seeded house-RNG
//     IDGen, never from the wall clock, so tests that pin the seed see
//     reproducible trace trees. SpanContext rides context.Context
//     within a process and the X-Trace-Id / X-Span-Id headers across
//     processes; completed spans land in a bounded ring-buffer
//     Recorder served by SpansHandler as GET /debug/spans.
//
//   - Exposition: WriteProm renders counters, gauges and histogram
//     snapshots in the Prometheus text format (metric names sanitized
//     by PromName; the only label is a bucket's numeric le), and
//     LintProm is a small hand-rolled checker for that format used
//     both as a unit test and as the CI smoke job's validator
//     (cmd/promlint).
//
// The package never alters response bodies or decides policy; layers
// above record into it and expose what it renders.
package obs
