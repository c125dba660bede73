// Package core defines the proof-labeling-scheme model of §2.2 of the paper
// and its randomized extension, plus the three generic constructions:
//
//   - Compile (Theorem 3.1): any deterministic PLS with κ-bit labels becomes
//     an RPLS exchanging O(log κ)-bit certificates.
//   - UniversalPLS / UniversalRPLS (Lemma 3.3, Corollary 3.4): any decidable
//     predicate has a PLS with O(min(n², m log n) + nk)-bit labels and an
//     RPLS with O(log n + log k)-bit certificates.
//   - Boost (footnote 1): t independent repetitions drive the error to 2^−Θ(t).
//
// A deterministic scheme (PLS) is a prover/verifier pair: the prover is an
// oracle assigning a label ℓ(v) to every node of a legal configuration; the
// verifier is a one-round distributed algorithm in which every node sees its
// own state, its own label, and the labels of its neighbors, and outputs a
// boolean. The scheme accepts when every node outputs true.
//
// A randomized scheme (RPLS) never exchanges labels: each node uses its
// label and private coins to generate a random certificate per incident
// port, and decides from its state, its label, and the certificates
// received. The verification complexity is the maximum certificate length
// (Definition 2.1).
//
// Labels are fixed across the trials of a Monte-Carlo estimate, so every
// trial is answered through one prepared node per node (see lanes.go):
// Prepare does a node's coin-free work once (label parsing, the field, the
// inner vote of a compiled scheme), and the node then runs up to 64 trials
// ("lanes") per call without changing a single output bit. Compiled,
// uniform and boosted schemes implement Preparer. Compiled and uniform
// both return an EqualityNode, which runs Lemma A.1's equality test on
// every directed edge; Boost's node decides its framed repetitions through
// DecideWindows, the decider the engine's capped rounds share. Every other
// scheme is answered by a LabelNode over its label path, which stays the
// paper's model and the reference every node is tested against.
package core

import (
	"errors"

	"rpls/internal/bitstring"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Label is a proof string assigned to a node by a prover.
type Label = bitstring.String

// Cert is a randomized certificate generated by a node for one neighbor.
type Cert = bitstring.String

// ErrIllegalConfig is returned by provers invoked on configurations that do
// not satisfy their predicate; the model only defines prover output on legal
// configurations.
var ErrIllegalConfig = errors.New("core: prover invoked on an illegal configuration")

// Predicate is the boolean network property P being certified, decided
// sequentially (the ground truth against which schemes are tested).
type Predicate interface {
	// Name identifies the predicate in reports.
	Name() string
	// Eval decides P(Gs) with full knowledge of the configuration.
	Eval(c *graph.Config) bool
}

// View is the locally visible context of a node during verification: its
// index (diagnostics only), its degree, and its state. Verifiers must not
// reach beyond it; the runtime hands each node exactly this.
type View struct {
	Node  int
	Deg   int
	State graph.State
}

// ViewOf extracts node v's local view from a configuration.
func ViewOf(c *graph.Config, v int) View {
	return View{Node: v, Deg: c.G.Degree(v), State: c.States[v]}
}

// Prover assigns labels to all nodes of a configuration assumed to satisfy
// the predicate. Implementations may return ErrIllegalConfig when handed an
// illegal configuration (soundness tests exercise adversarial labels
// directly instead of calling the prover).
type Prover interface {
	Label(c *graph.Config) ([]Label, error)
}

// PLS is a deterministic proof-labeling scheme.
type PLS interface {
	Prover
	// Name identifies the scheme in reports.
	Name() string
	// Verify is the decision of the node described by view, given its own
	// label and the labels of its neighbors indexed by port−1.
	Verify(view View, own Label, nbrs []Label) bool
}

// RPLS is a randomized proof-labeling scheme. All concrete schemes in this
// repository are edge-independent (Definition 4.5: Certs must draw
// independent coins per port, which the runtime encourages by handing a
// forked stream) and one-sided.
type RPLS interface {
	Prover
	// Name identifies the scheme in reports.
	Name() string
	// Certs generates one certificate per port (index i = port i+1) from the
	// node's label and private coins.
	Certs(view View, own Label, rng *prng.Rand) []Cert
	// Decide is the node's output given the certificates received from its
	// neighbors, indexed by the local port−1 they arrived on.
	Decide(view View, own Label, received []Cert) bool
	// OneSided reports whether legal configurations with honest labels are
	// accepted with probability 1.
	OneSided() bool
}

// MaxBits returns the maximum length of the given strings in bits — the
// measured verification complexity of a label or certificate assignment.
func MaxBits(ss []bitstring.String) int {
	max := 0
	for _, s := range ss {
		if s.Len() > max {
			max = s.Len()
		}
	}
	return max
}
