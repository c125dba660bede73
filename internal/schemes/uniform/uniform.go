// Package uniform implements the Unif predicate of Appendix C (Lemma C.3):
// every node carries the same k-bit payload in its state.
//
// Unif is the cleanest witness of the paper's exponential separation.
// Deterministically, verification requires the payload itself to travel
// between neighbors — the PLS here uses k-bit labels (and Lemma C.3 shows
// Ω(log k) is required even with randomness). The direct RPLS needs *no
// labels at all*: each node fingerprints its own payload per Lemma A.1 and
// sends the O(log k)-bit fingerprint; any adjacent disagreement is caught
// with probability > 2/3.
package uniform

import (
	"bytes"
	"fmt"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/field"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Predicate decides Unif: all node Data payloads are equal. On a connected
// graph this is equivalent to all adjacent pairs agreeing.
type Predicate struct{}

var _ core.Predicate = Predicate{}

// Name implements core.Predicate.
func (Predicate) Name() string { return "uniform" }

// Eval implements core.Predicate.
func (Predicate) Eval(c *graph.Config) bool {
	for v := 1; v < c.G.N(); v++ {
		if !bytes.Equal(c.States[v].Data, c.States[0].Data) {
			return false
		}
	}
	return true
}

// NewPLS returns the deterministic scheme: the label of v is its payload,
// and v accepts when its label matches its own payload and every neighbor
// label matches its own label. Verification complexity k.
func NewPLS() core.PLS { return detPLS{} }

type detPLS struct{}

var _ core.PLS = detPLS{}

func (detPLS) Name() string { return "uniform-det" }

func (detPLS) Label(c *graph.Config) ([]core.Label, error) {
	if !(Predicate{}).Eval(c) {
		return nil, core.ErrIllegalConfig
	}
	out := make([]core.Label, c.G.N())
	for v := range out {
		out[v] = bitstring.FromBytes(c.States[v].Data)
	}
	return out, nil
}

func (detPLS) Verify(view core.View, own core.Label, nbrs []core.Label) bool {
	if !own.Equal(bitstring.FromBytes(view.State.Data)) {
		return false
	}
	for _, nl := range nbrs {
		if !nl.Equal(own) {
			return false
		}
	}
	return true
}

// NewRPLS returns the direct randomized scheme: labels are empty;
// certificates are fingerprints of the node's own payload. One-sided and
// edge-independent; verification complexity O(log k).
func NewRPLS() core.RPLS {
	return randRPLS{name: "uniform-rand", prime: field.PrimeForLength, cache: &field.EvalCache{}}
}

// NewTruncatedRPLS returns the direct scheme with an adversarially small
// fingerprint field of the given bit width, regardless of the payload
// length. It realizes the Ω(log k) lower bound of Lemma C.3 constructively:
// when 2^fieldBits ≪ 3k there exist distinct payloads (commcc.FoolingPair)
// the scheme can never tell apart, so an illegal configuration built from
// them is accepted with probability 1.
func NewTruncatedRPLS(fieldBits int) core.RPLS {
	if fieldBits < 2 {
		fieldBits = 2
	}
	p := field.NextPrime(1 << uint(fieldBits-1))
	return randRPLS{
		name:  fmt.Sprintf("uniform-rand-truncated(%d-bit field)", fieldBits),
		prime: func(int) uint64 { return p },
		cache: &field.EvalCache{},
	}
}

type randRPLS struct {
	name  string
	prime func(lambda int) uint64
	// cache memoizes the payload polynomial's value table over the small
	// fingerprint field. Every node of a legal configuration carries the
	// same payload — the predicate being verified — so the memo is shared
	// by all (node, port, trial) evaluations of a run. Lookups are
	// bit-identical to direct evaluation.
	cache *field.EvalCache
}

var _ core.RPLS = randRPLS{}

func (r randRPLS) Name() string { return r.name }

func (randRPLS) OneSided() bool { return true }

func (randRPLS) Label(c *graph.Config) ([]core.Label, error) {
	if !(Predicate{}).Eval(c) {
		return nil, core.ErrIllegalConfig
	}
	return make([]core.Label, c.G.N()), nil // label-free
}

func (r randRPLS) Certs(view core.View, _ core.Label, rng *prng.Rand) []core.Cert {
	data := bitstring.FromBytes(view.State.Data)
	p := r.prime(data.Len())
	certs := make([]core.Cert, view.Deg)
	for i := range certs {
		certs[i] = core.FingerprintCert(data, p, rng.Fork(uint64(i)))
	}
	return certs
}

func (r randRPLS) Decide(view core.View, _ core.Label, received []core.Cert) bool {
	data := bitstring.FromBytes(view.State.Data)
	return len(received) == view.Deg && matchAll(received, data, r.prime(data.Len()))
}

// matchAll reports whether every certificate is a well-formed fingerprint
// of data's length over GF(p) that data's polynomial passes through.
func matchAll(certs []core.Cert, data bitstring.String, p uint64) bool {
	for _, cert := range certs {
		fp, ok := core.ReadFingerprintCert(cert, data.Len(), p)
		if !ok || !fp.Matches(data) {
			return false
		}
	}
	return true
}

var _ core.Preparer = randRPLS{}

// Prepare implements core.Preparer: the node fingerprints the payload on
// every port and expects it on every port, through the scheme's cache, so
// every (lane, port) point of a call is evaluated in one EvalMany. The
// payload must be at most 2³⁰ bits (core.NewFingerprintLayout's
// precondition).
func (r randRPLS) Prepare(view core.View, _ core.Label) core.Prepared {
	data := bitstring.FromBytes(view.State.Data)
	return core.NewEqualityNode(view.Deg, data, true, []bitstring.String{data}, r.prime, r.cache)
}
