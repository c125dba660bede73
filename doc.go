// Package rpls is a complete, executable reproduction of "Randomized
// Proof-Labeling Schemes" (Baruch, Fraigniaud, Patt-Shamir, PODC 2015).
//
// A proof-labeling scheme certifies a global predicate of a network
// configuration with per-node labels checked in one communication round; a
// randomized scheme exchanges only short random certificates derived from
// the labels. This module implements the full stack: the network model with
// port numberings, deterministic and randomized schemes for every predicate
// the paper studies (spanning tree, acyclicity, MST, biconnectivity, cycle
// thresholds, k-flow, symmetry, uniformity, coloring, leader), the
// Theorem 3.1 compiler that shrinks any deterministic scheme's
// communication exponentially, the universal schemes of Lemma 3.3 and
// Corollary 3.4, the edge-crossing lower-bound machinery of §4 with
// constructive pigeonhole attacks, a unified verification engine with
// pluggable executors and multi-round (t-PLS) certificate sharding — the
// paper's space–time tradeoff, t rounds of ⌈κ/t⌉ bits per port — and a
// self-stabilization monitor.
//
// Entry points:
//
//   - internal/engine     — the verification API: the unified Scheme
//     abstraction (one round shape for both models), one per-trial
//     contract (every node prepared once, answering up to 64 trials per
//     call) run by one lane loop one lane wide (Sequential: any t >= 1
//     rounds, the classic round being t = 1) or 64 (Batched), with exact wire
//     accounting (bits per port per round, identical across executors),
//     t-round verification (engine.Shard wraps any registered scheme: each
//     node derives its strings once per trial and the kernel meters each
//     as the t shards of core.Shard's ⌈κ/t⌉-bit layout), the
//     trial-parallel Run / Estimate /
//     Soundness / Sweep batch entry points (Wilson confidence intervals,
//     early stopping, bit-identical summaries at every parallelism level),
//     and the name → constructor Registry that every scheme package
//     self-registers into
//   - internal/campaign   — the scenario workload machine: declarative JSON
//     specs expand into deterministic cross products of schemes × graph
//     families × sizes × seeds × adversaries × measures (acceptance,
//     soundness, communication) × verification rounds, and a parallel
//     scheduler streams them into append-only JSONL results that double
//     as the resume checkpoint, the BENCH_campaign.json summary and the
//     BENCH_curves.json det/rand, rounds and multiplicity curves with
//     spec-declared bounds (byte-identical output at any worker count)
//   - internal/core       — the PLS/RPLS model of §2.2, compiler, universal
//     schemes, boosting
//   - internal/schemes/…  — one package per predicate; each registers its
//     schemes with the engine from init
//   - internal/crossing   — lower-bound attacks
//   - internal/experiments — the E1–E21 harness behind EXPERIMENTS.md, and
//     the instance catalog (builders + corruptors) the CLIs drive
//   - internal/selfstab   — periodic re-verification and fault detection
//   - internal/analysis/plsvet — the static gate over the engine's
//     contracts: five go/ast+go/types analyzers (detrand, maporder,
//     hotalloc, register, meterflow) enforce that deterministic packages
//     touch no ambient randomness or clocks, map iteration never feeds
//     order-sensitive output, //pls:hotpath functions stay
//     allocation-free, every scheme package self-registers and is linked
//     by internal/schemes/all, and the engine's wire meters are
//     read-only outside internal/engine; run it with
//     `go run ./cmd/plsvet ./...`, suppress a justified site with
//     `//plsvet:allow <analyzer> — reason`
//   - internal/graph      — the §2.1 network model, plus the name → builder
//     family registry (gnp, grid, torus, hypercube, dregular, powerlawtree,
//     barbell, …) behind the campaign scenario axis
//   - cmd/plsrun, cmd/experiments, cmd/crossattack, cmd/plscampaign,
//     cmd/plsvet — CLIs;
//     plsrun -list enumerates the scheme and family registries, prints
//     per-edge wire costs, and -rounds t runs any scheme sharded;
//     plscampaign run/resume/describe/comm/tradeoff/list drives campaign
//     specs and asserts the det/rand communication ratio and the κ/t
//     bits-per-round curves; plsvet is the static-invariant gate
//   - examples/           — runnable walkthroughs
//
// See DESIGN.md for the paper-to-code map and the engine architecture.
package rpls
