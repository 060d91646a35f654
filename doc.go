// Package repro is a from-scratch Go reproduction of "CacheQuery: Learning
// Replacement Policies from Hardware Caches" (Vila, Ganty, Guarnieri, Köpf;
// PLDI 2020).
//
// The library lives under internal/, mirroring the paper's stack bottom to
// top:
//
//   - internal/policy — executable replacement policies and policy.Compile,
//     which freezes a policy's control-state space into dense transition
//     tables (the compiled kernel every simulator layer runs on)
//   - internal/cache — the n-way cache-set model and reset-sequence search
//   - internal/hw — simulated silicon: three-level hierarchies with slice
//     hashing, prefetchers, noise, CAT masking and adaptive L3s
//   - internal/cachequery — the CacheQuery tool: address provisioning,
//     level filtering, latency calibration, voting, result memoization
//   - internal/mbl — the MemBlockLang query DSL
//   - internal/polca — the Polca oracle (Algorithm 1): policy-level
//     queries over block probes, with a prefix-trie probe memo and a
//     simulator table state at every recorded prefix
//   - internal/qstore — the generic prefix-trie query store, locked by
//     its owner (memoization, node decorations, snapshots)
//   - internal/intern — dense integer interning for hot-path keys
//   - internal/learn — two Mealy-machine learners (L*-style table and
//     discrimination tree) over one batched, memoizing query engine
//   - internal/mealy — Mealy machines: minimization, equivalence, JSON
//   - internal/synth — CEGIS synthesis of rule-based policy explanations
//   - internal/faulty — deterministic fault injection for resilience soak
//   - internal/core — end-to-end pipelines (simulator and hardware
//     learning, snapshots, retry/quarantine)
//   - internal/daemon — the polcad HTTP daemon: shared per-(policy,assoc)
//     engines, single-flighted queries, learning jobs with SSE progress,
//     tenant quotas, snapshot-backed graceful drain
//   - internal/experiments — the paper's table/figure harness
//
// The commands under cmd/ are thin shells over those packages: cmd/polca
// (the learning CLI), cmd/polcad and cmd/polcaload (the daemon and its
// load harness — see docs/API.md), cmd/experiments (paper tables),
// cmd/genmodels (model artifacts), cmd/benchjson (benchmark baselines and
// the CI regression gate), cmd/cachequery and cmd/cqsynth (direct access
// to the probing and synthesis layers).
//
// See README.md for a guided tour and DESIGN.md for the system inventory,
// design decisions and the performance narrative. The benchmarks in
// bench_test.go regenerate every table and figure of the evaluation.
//
// The published model artifacts under models/ are regenerated (in parallel,
// with a learning cross-check) by cmd/genmodels:
//
//go:generate go run repro/cmd/genmodels -out models
package repro
