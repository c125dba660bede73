// Package engine is the unified verification API of this repository: one
// Scheme abstraction covering both deterministic and randomized
// proof-labeling schemes, pluggable round executors, and batch entry points.
//
// The paper's verification round has the same shape in both models — every
// node sends one string per incident port, receives one string per port, and
// outputs a boolean. Only the message differs: a randomized scheme sends
// coin-derived certificates (§2.2), a deterministic scheme sends its label
// on every port (the degenerate certificate). Scheme captures exactly that
// round; FromPLS and FromRPLS adapt the core model types onto it, so a
// single round implementation serves both models.
//
// Every trial is answered through one per-trial contract: the engine
// prepares one core.Prepared node per graph node — once per estimate, and
// once per Round call for Run and Verify — and a node answers 1 to 64
// trials ("lanes") per call. Compiled and uniform schemes bring a
// core.EqualityNode and boosted schemes their own node; every other scheme
// shape (deterministic label broadcast, coloring, test fixtures) is
// answered by a core.LabelNode over its label path. Under a multiplicity
// cap the engine wraps each of those nodes in its one cap node (see
// congestion.go), which decides merged class messages through
// core.DecideWindows, as Boost's node decides its repetitions. The label
// path (Certs and Decide) stays the paper's model and the reference every
// node is tested against. Both executors run the one lane loop over those
// nodes (see kernel) and differ only in their widest batch:
//
//   - Sequential — one lane: one Round runs a scheme's t >= 1 rounds (the
//     classic round is t = 1) from strings derived once per node, meters
//     every message through one function, and reuses its buffers across
//     rounds, so the deterministic round allocates nothing (Monte-Carlo
//     estimation, self-stabilization monitors, benchmarks).
//   - Batched — up to 64 lanes, for Monte-Carlo throughput: a CSR
//     adjacency snapshot plus lane-major certificate planes push up to 64
//     trials through one graph traversal, AND-reducing per-node vote
//     masks. Estimate hands it whole trial chunks.
//
// A deterministic scheme, sharded or not, runs once per estimate on either
// executor, since every trial is the same execution.
//
// NewExecutor resolves the executor names the CLIs and campaign specs use.
// Both executors produce identical votes and stats for the same seed, and
// equal to those of a goroutine-per-node reference execution kept in the
// tests (one goroutine per node, one channel per directed edge, its own
// metering): the parity property test in this package enforces that.
//
// Entry points: Run (label and verify once), Verify (verify under arbitrary,
// possibly adversarial labels), Estimate (trial-parallel Monte-Carlo
// acceptance with a Wilson confidence interval and early stopping — see
// WithParallelism, WithMaxSE, WithStopOnReject), Soundness (worst-case
// acceptance under the transplant / random / bit-flip adversaries), Sweep
// (measure across instance sizes, sharded over workers), and MaxCertBits
// (the Definition 2.1 verification complexity, tracked inside the trial
// loop). Estimate shards trials seed..seed+T−1 across workers that each own
// a cloned executor (Executor.Clone) and merges outcomes by trial index, so every Summary is
// bit-identical for any parallelism level and any executor. Schemes are
// discovered by name through the Registry, which each internal/schemes
// package populates from its init function.
//
// Wire accounting: every executor meters exactly what the round puts on
// the wire — bits per port per message, at the sender — into Stats, and
// Estimate folds the per-trial counters into Summary (TotalBits,
// TotalMessages, MaxPortBits, AvgBitsPerEdge) under the same
// bit-identical-under-parallelism guarantee as acceptance — the parity
// property test requires bit-identical Stats from both executors and the
// goroutine-per-node reference.
// This is the paper's primary axis of comparison: per-edge verification
// cost Θ(λ) deterministic vs O(log λ) randomized.
//
// Congestion: WithMultiplicity(m) caps how many distinct messages a node
// may send per round (Patt-Shamir–Perry's broadcast ⇄ unicast axis; m=1
// is broadcast, 0 leaves classic unicast). Ports are partitioned
// round-robin into core.PortClass classes, and one rule picks the
// degradation: a one-sided single-round scheme merges each class into one
// message (core.CapMerge wire format) whose receiver checks every member,
// every other randomized scheme replicates each class's longest string
// (core.CapReplicate), and deterministic label broadcast, sharded or not,
// satisfies every cap as is.
// Stats.DistinctMessages / Summary.TotalDistinct meter the constrained
// quantity under the same byte-identity guarantee as the other counters.
// See DESIGN.md, "Congestion-bounded verification".
//
// Observability: the estimator, the batched lanes, and the soundness
// fan-out record write-only telemetry into internal/obs (per-executor
// trial timing, lane occupancy, early-stop and chunk events, spans). The
// recorder is off by default and allocation-free when on; nothing in this
// package may read telemetry back (plsvet's obsflow analyzer rejects it),
// and the metrics-on/off golden tests in obs_test.go prove a live recorder
// leaves every Summary, vote, and Stats field bit-identical. See DESIGN.md,
// "Observability contract".
package engine

import (
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Scheme is the unified round abstraction. A deterministic scheme reports
// Deterministic() == true and never has Certs called: executors send the
// node's label on every port instead, which keeps the deterministic hot
// path free of certificate allocations. Certs and Decide are the label
// path: the executors answer trials through prepared nodes that are
// bit-equivalent to it (see core.Prepared).
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Label assigns labels to all nodes of a configuration assumed legal.
	Label(c *graph.Config) ([]core.Label, error)
	// Deterministic reports whether the round exchanges labels themselves
	// rather than coin-derived certificates.
	Deterministic() bool
	// OneSided reports whether legal, honestly labeled configurations are
	// accepted with probability 1.
	OneSided() bool
	// Certs generates one certificate per port (index i = port i+1) from the
	// node's label and private coins. Unused for deterministic schemes.
	Certs(view core.View, own core.Label, rng *prng.Rand) []core.Cert
	// Decide is the node's output given the strings received on its ports.
	Decide(view core.View, own core.Label, received []core.Cert) bool
}

// plsScheme adapts a deterministic PLS: the "certificate" on every port is
// the node's own label.
type plsScheme struct{ s core.PLS }

// FromPLS adapts a deterministic scheme onto the unified round.
func FromPLS(s core.PLS) Scheme { return plsScheme{s} }

func (a plsScheme) Name() string                                { return a.s.Name() }
func (a plsScheme) Label(c *graph.Config) ([]core.Label, error) { return a.s.Label(c) }
func (a plsScheme) Deterministic() bool                         { return true }
func (a plsScheme) OneSided() bool                              { return true }

func (a plsScheme) Certs(view core.View, own core.Label, _ *prng.Rand) []core.Cert {
	certs := make([]core.Cert, view.Deg)
	for i := range certs {
		certs[i] = own
	}
	return certs
}

func (a plsScheme) Decide(view core.View, own core.Label, received []core.Cert) bool {
	return a.s.Verify(view, own, received)
}

// rplsScheme adapts a randomized RPLS verbatim.
type rplsScheme struct{ s core.RPLS }

// FromRPLS adapts a randomized scheme onto the unified round.
func FromRPLS(s core.RPLS) Scheme { return rplsScheme{s} }

func (a rplsScheme) Name() string                                { return a.s.Name() }
func (a rplsScheme) Label(c *graph.Config) ([]core.Label, error) { return a.s.Label(c) }
func (a rplsScheme) Deterministic() bool                         { return false }
func (a rplsScheme) OneSided() bool                              { return a.s.OneSided() }

func (a rplsScheme) Certs(view core.View, own core.Label, rng *prng.Rand) []core.Cert {
	return a.s.Certs(view, own, rng)
}

func (a rplsScheme) Decide(view core.View, own core.Label, received []core.Cert) bool {
	return a.s.Decide(view, own, received)
}

// AsPLS recovers the underlying deterministic scheme from a FromPLS
// adapter; ok is false for any other Scheme.
func AsPLS(s Scheme) (core.PLS, bool) {
	a, ok := s.(plsScheme)
	if !ok {
		return nil, false
	}
	return a.s, true
}

// AsRPLS recovers the underlying randomized scheme from a FromRPLS
// adapter; ok is false for any other Scheme.
func AsRPLS(s Scheme) (core.RPLS, bool) {
	a, ok := s.(rplsScheme)
	if !ok {
		return nil, false
	}
	return a.s, true
}

// Stats records the measured communication cost of one verification round.
//
// The wire-accounting contract (see DESIGN.md): a "bit on the wire" is one
// bit of one message crossing one directed edge, measured at the sender.
// Every node sends exactly one message per incident port per round — its
// label for a deterministic scheme, a coin-derived certificate otherwise —
// so Messages is the number of directed edges (2m) and TotalWireBits is the
// sum of the message lengths. MaxPortBits is the largest single message;
// MaxCertBits is the verification complexity κ of Definition 2.1, i.e. the
// largest string a node sends on any port. For deterministic schemes the
// string sent is the label itself, so κ is the max label bits actually
// transmitted, not zero. All counters are exact and executor-independent:
// the parity property test requires bit-identical Stats from both
// executors and the goroutine-per-node reference for the same seed.
// A multi-round (t-PLS) scheme runs Rounds > 1 synchronous rounds: every
// counter then covers all rounds of the execution — Messages is rounds × 2m
// and TotalWireBits sums every round — while MaxCertBits and MaxPortBits
// remain per-message maxima, i.e. the exact bits-per-round of the κ/t
// tradeoff (a sharded scheme's largest message is the ⌈κ/t⌉-bit shard).
//
// DistinctMessages is the congestion axis counter: per node and per round
// it adds the number of distinct payloads the scheme structurally
// guarantees — 1 for a deterministic broadcast, min(m, deg) under a
// WithMultiplicity cap, deg for an unconstrained randomized round — never
// a byte comparison of what happened to coincide. The conservation law is
// DistinctMessages <= Messages, with equality exactly in the unicast
// regime; the per-round count is DistinctMessages / Rounds, since the
// structural count of a node is round-invariant. Like every other counter
// it is exact and bit-identical across executors, parallelism, and lanes.
type Stats struct {
	Rounds           int // verification rounds executed (1 for classic schemes)
	MaxLabelBits     int
	MaxCertBits      int   // κ of Definition 2.1: largest string sent on any port in any round
	MaxPortBits      int   // largest message that crossed a single port in any round
	TotalWireBits    int64 // sum of bits crossing all directed edges, all rounds
	Messages         int   // number of point-to-point messages (rounds × 2m)
	DistinctMessages int64 // structurally distinct payloads minted, all rounds (<= Messages)
}

// Result is the outcome of one verification round. Votes is populated only
// when the round ran with WithStats(true).
type Result struct {
	Accepted bool   // all nodes output true
	Votes    []bool // per-node outputs
	Stats    Stats
}

// AllTrue is the scheme acceptance rule: every node voted true and the
// configuration is nonempty.
func AllTrue(votes []bool) bool {
	for _, v := range votes {
		if !v {
			return false
		}
	}
	return len(votes) > 0
}
