// Package campaign turns the verification engine into a workload machine:
// a declarative scenario spec expands into a deterministic plan of cells —
// the cross product of schemes × variants × graph families × sizes × seeds
// × executors × measures — and a parallel scheduler streams the cells
// through engine.Estimate and engine.Soundness into append-only JSONL
// results, which are also the resume checkpoint. Executor names resolve
// through engine.NewExecutor ("sequential" and "batched"); a spec naming
// any other executor, the retired "pool", "goroutines" and "seq" included,
// fails validation with the engine's *OptionError before any cell runs,
// since cell IDs encode the executor as spelled.
//
// The paper's headline claims are comparative (randomized certificates
// beat deterministic labels across graph families, scheme types, and
// adversaries), so the unit of work here is the scenario cell, not the
// single run. A Spec is plain JSON: schemes come from engine.Registry,
// graph families from graph.Families (plus the pseudo-family "catalog",
// which sources instances from the per-predicate builders and corruptors
// of internal/experiments), and everything else is a list of values to
// cross. Expansion order is fixed, so a spec always yields the same cells
// in the same order with the same IDs.
//
// Determinism is contractual end to end: every cell is a pure function of
// its resolved fields (the engine's Summary is bit-identical at any
// parallelism level, and instance construction derives only from the cell
// seed), and the scheduler writes records in cell order through an
// in-order reorder buffer — so results.jsonl is byte-identical for any
// worker count. The golden test in scheduler_test.go enforces this.
//
// The package is layered as a transport-agnostic core plus consumers:
// Prepare reconciles a directory against a spec (torn-tail repair, the
// done-set from the records, todo computation), MarshalRecord is the one
// record marshaler, Sink is the in-order reorder buffer with idempotent
// first-write-wins delivery, and WriteAggregates rewrites the
// BENCH_*.json tail. Runner drives those four primitives with an
// in-process worker pool; the campaign/fabric sub-package drives the same
// four over HTTP, leasing cell ranges to remote workers with crash
// reclaim — and inherits byte-identity structurally instead of
// re-deriving it per transport. See DESIGN.md, "Distributed campaigns".
//
// Resume contract: a campaign directory holds spec.json (provenance),
// results.jsonl (one Record per executed cell, append-only, flushed per
// batch), and BENCH_campaign.json and BENCH_curves.json (the aggregates,
// rewritten after every run). results.jsonl is the checkpoint: a re-run
// reads its records and skips the cells they name without re-executing or
// re-writing them, and a cell whose record is missing runs again;
// extending a spec (more sizes, more seeds) in the same directory executes
// only the new cells. A manifest.jsonl left by an older version is never
// read.
//
// Wire accounting: the estimate and comm measures record the engine's
// exact wire counters (TotalBits, TotalDistinct, MaxPortBits,
// AvgBitsPerEdge) per cell. Seed-dependent generator failures (a
// d-regular pairing that never mixed) are retried with derived seeds and
// the retry count is recorded on the cell instead of surfacing a spurious
// incompatible hole. Specs may add a rounds axis (t-PLS sharding) and a
// multiplicity axis (message-multiplicity caps, 0 = unconstrained
// unicast, 1 = broadcast), both nested innermost so older cell IDs —
// which carry no /r= or /m= marker — stay resume-compatible.
//
// Curves: every run rewrites BENCH_curves.json, the paper's measurable
// claims as curves along three axes — det / rand / compiled bits per
// edge (the Θ(λ) vs O(log λ) separation), bits per round over t (the
// κ/t tradeoff), and verified bits over m (broadcast ⇄ unicast). Each
// curve holds every other axis of the cross product fixed. A spec's
// "curves" bounds turn them into assertions that `plscampaign assert`
// checks. See DESIGN.md, "Curve aggregate".
//
// Observability: the scheduler narrates each run through a structured
// log/slog logger (phase=plan|execute|progress|aggregate|done records with
// throughput and ETA attributes — the CI smoke asserts the sequence) and
// records write-only telemetry into internal/obs: per-cell duration and
// per-status counters, worker busy time, reorder-buffer depth, and a
// campaign.run span. Neither stream can perturb results — the logger only
// wraps output writers, obs is write-only here by plsvet's obsflow
// analyzer, and TestGoldenResultsWithMetricsOn byte-compares results.jsonl
// metrics-on vs off. See DESIGN.md, "Observability contract".
package campaign
