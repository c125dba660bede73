// Package coloring certifies proper vertex coloring, the paper's very first
// example of a locally checkable predicate (§1). Each node's color is part
// of its state; deterministically the label simply repeats the color so
// neighbors can compare (O(log C) bits for C colors).
//
// The direct randomized scheme is instructive in the opposite direction
// from equality-based schemes: acceptance requires certifying *inequality*
// on every edge. A fingerprint match now signals the bad event, and since a
// legal configuration must survive tests on all m edges, the per-test
// error must be driven below 1/(3·2m) — the union-bound tuning the paper's
// ε-obliviousness remark describes. The resulting scheme is one-sided in
// reverse: illegal configurations are rejected with probability 1, legal
// ones accepted with probability ≥ 2/3, and certificates still take only
// O(log C + log m) bits.
package coloring

import (
	"fmt"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/field"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Predicate decides proper coloring: adjacent nodes have distinct Colors.
type Predicate struct{}

var _ core.Predicate = Predicate{}

// Name implements core.Predicate.
func (Predicate) Name() string { return "proper-coloring" }

// Eval implements core.Predicate.
func (Predicate) Eval(c *graph.Config) bool {
	for v := 0; v < c.G.N(); v++ {
		for _, h := range c.G.AdjView(v) {
			if c.States[v].Color == c.States[h.To].Color {
				return false
			}
		}
	}
	return true
}

const colorBits = 64

func colorString(col int64) bitstring.String {
	var w bitstring.Writer
	w.WriteUint(uint64(col), colorBits)
	return w.String()
}

// NewPLS returns the deterministic scheme: labels repeat the color.
func NewPLS() core.PLS { return pls{} }

type pls struct{}

var _ core.PLS = pls{}

func (pls) Name() string { return "coloring-det" }

func (pls) Label(c *graph.Config) ([]core.Label, error) {
	if !(Predicate{}).Eval(c) {
		return nil, core.ErrIllegalConfig
	}
	out := make([]core.Label, c.G.N())
	for v := range out {
		out[v] = colorString(c.States[v].Color)
	}
	return out, nil
}

func (pls) Verify(view core.View, own core.Label, nbrs []core.Label) bool {
	if !own.Equal(colorString(view.State.Color)) {
		return false
	}
	if len(nbrs) != view.Deg {
		return false
	}
	for _, nl := range nbrs {
		if nl.Equal(own) {
			return false
		}
	}
	return true
}

// NewRPLS returns the label-free randomized scheme tuned for a
// configuration with at most m edges: the fingerprint field has
// p > 6·m·colorBits so that, by a union bound over the 2m directed tests,
// a properly colored configuration is accepted with probability ≥ 2/3.
// Illegal configurations are rejected with probability 1.
func NewRPLS(m int) core.RPLS {
	if m < 1 {
		m = 1
	}
	return rpls{p: field.NextPrime(uint64(6*m*colorBits) + 1)}
}

type rpls struct {
	p uint64
}

var _ core.RPLS = rpls{}

func (r rpls) Name() string { return fmt.Sprintf("coloring-rand(p=%d)", r.p) }

// OneSided reports false: this scheme errs (only) on legal instances.
func (rpls) OneSided() bool { return false }

func (rpls) Label(c *graph.Config) ([]core.Label, error) {
	if !(Predicate{}).Eval(c) {
		return nil, core.ErrIllegalConfig
	}
	return make([]core.Label, c.G.N()), nil
}

func (r rpls) Certs(view core.View, _ core.Label, rng *prng.Rand) []core.Cert {
	col := colorString(view.State.Color)
	certs := make([]core.Cert, view.Deg)
	for i := range certs {
		fp := field.NewFingerprint(col, r.p, rng.Fork(uint64(i)))
		var w bitstring.Writer
		fp.Encode(&w)
		certs[i] = w.String()
	}
	return certs
}

func (r rpls) Decide(view core.View, _ core.Label, received []core.Cert) bool {
	col := colorString(view.State.Color)
	if len(received) != view.Deg {
		return false
	}
	for _, cert := range received {
		rd := bitstring.NewReader(cert)
		fp, err := field.DecodeFingerprint(rd, r.p)
		if err != nil || rd.Remaining() != 0 {
			return false
		}
		// A matching fingerprint means the neighbor's color is (almost
		// surely) equal to mine — the illegal event.
		if fp.Matches(col) {
			return false
		}
	}
	return true
}
