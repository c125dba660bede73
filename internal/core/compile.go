package core

import (
	"fmt"

	"rpls/internal/bitstring"
	"rpls/internal/field"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Compile implements Theorem 3.1: given a deterministic PLS with
// verification complexity κ, it returns a one-sided, edge-independent RPLS
// with verification complexity O(log κ).
//
// Construction (Appendix A): the compiled prover replicates each node's
// label onto all its neighbors — the new label of v is the vector
// (ℓ(v), ℓ(w₁), …, ℓ(w_d)) ordered by port. During verification, v does not
// send its label; instead, per port it draws a uniform x in GF(p) for a
// prime 3κ < p < 6κ and sends the fingerprint (x, A(x)) of ℓ(v) viewed as a
// polynomial (Lemma A.1). The receiver checks the fingerprint against its
// stored replica of the sender's label and, if every replica passes, runs
// the original deterministic verifier on the replicas.
//
// Equal strings always fingerprint-match, so legal configurations are
// accepted with probability 1 (one-sided). On illegal configurations either
// some replica is inconsistent — detected with probability > 2/3 on that
// edge — or all replicas are faithful and the deterministic verifier
// rejects outright.
//
// The transmitted certificate also carries the label length in Elias-gamma
// form (2⌊log κ⌋+1 bits): a fingerprint alone cannot distinguish a string
// from the same string with trailing zero bits, since both induce the same
// polynomial.
func Compile(p PLS) RPLS {
	return &compiled{inner: p}
}

// CompiledCertBits predicts the exact number of bits a compiled scheme
// puts on one port when the inner label is kappa bits long: the
// Elias-gamma length prefix plus the (x, A(x)) fingerprint over GF(p) for
// p = PrimeForLength(kappa). This is the analytic form of the Theorem 3.1
// O(log κ) bound; the wire-accounting tests and the E1/E19 experiment
// tables check the metered cost against it bit for bit.
func CompiledCertBits(kappa int) int {
	if kappa < 0 {
		kappa = 0
	}
	p := field.PrimeForLength(kappa)
	return bitstring.GammaBits(uint64(kappa)) + 2*bitstring.UintBits(p-1)
}

type compiled struct {
	inner PLS
}

var _ RPLS = (*compiled)(nil)

func (c *compiled) Name() string   { return c.inner.Name() + "+compiled" }
func (c *compiled) OneSided() bool { return true }

// Label builds the replicated label vector. Each sub-label is written with
// a gamma length prefix so it can be decoded without trusting the content.
func (c *compiled) Label(cfg *graph.Config) ([]Label, error) {
	base, err := c.inner.Label(cfg)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", c.inner.Name(), err)
	}
	if len(base) != cfg.G.N() {
		return nil, fmt.Errorf("compile %s: %d labels for %d nodes", c.inner.Name(), len(base), cfg.G.N())
	}
	out := make([]Label, cfg.G.N())
	for v := range out {
		var w bitstring.Writer
		writeSub(&w, base[v])
		for _, h := range cfg.G.AdjView(v) {
			writeSub(&w, base[h.To])
		}
		out[v] = w.String()
	}
	return out, nil
}

func writeSub(w *bitstring.Writer, s bitstring.String) {
	w.WriteGamma(uint64(s.Len()))
	w.WriteString(s)
}

func readSub(r *bitstring.Reader) (bitstring.String, error) {
	n, err := r.ReadGamma()
	if err != nil {
		return bitstring.String{}, err
	}
	if n > 1<<30 {
		return bitstring.String{}, fmt.Errorf("compiled label: implausible sub-label length %d", n)
	}
	return r.ReadString(int(n))
}

// splitLabel decodes the replicated vector: own label plus one replica per
// port. Returns an error on malformed (adversarial) labels.
func (c *compiled) splitLabel(own Label, deg int) (self Label, replicas []Label, err error) {
	r := bitstring.NewReader(own)
	self, err = readSub(r)
	if err != nil {
		return Label{}, nil, fmt.Errorf("own sub-label: %w", err)
	}
	replicas = make([]Label, deg)
	for i := 0; i < deg; i++ {
		replicas[i], err = readSub(r)
		if err != nil {
			return Label{}, nil, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	if r.Remaining() != 0 {
		return Label{}, nil, fmt.Errorf("trailing bits in compiled label")
	}
	return self, replicas, nil
}

// Certs fingerprints the node's own sub-label once per port with
// independent coins (edge independence, Definition 4.5). A node with a
// malformed label sends empty certificates; its neighbors reject them,
// and the node itself rejects in Decide.
func (c *compiled) Certs(view View, own Label, rng *prng.Rand) []Cert {
	certs := make([]Cert, view.Deg)
	self, _, err := c.splitLabel(own, view.Deg)
	if err != nil {
		return certs
	}
	p := field.PrimeForLength(self.Len())
	for i := range certs {
		certs[i] = FingerprintCert(self, p, rng.Fork(uint64(i)))
	}
	return certs
}

// Decide checks every received fingerprint — gamma length prefix plus
// (x, A(x)) — against the stored replica of that neighbor's label, then
// runs the original deterministic verifier on the replicas. A length
// mismatch rejects outright: the replica cannot equal the sender's label.
func (c *compiled) Decide(view View, own Label, received []Cert) bool {
	self, replicas, err := c.splitLabel(own, view.Deg)
	if err != nil || len(received) != view.Deg {
		return false
	}
	for i, rep := range replicas {
		fp, ok := ReadFingerprintCert(received[i], rep.Len(), field.PrimeForLength(rep.Len()))
		if !ok || !fp.Matches(rep) {
			return false
		}
	}
	return c.inner.Verify(view, self, replicas)
}

var _ Preparer = (*compiled)(nil)

// Prepare implements Preparer: the label is split and the inner verifier
// run once, and an EqualityNode sends the self sub-label's fingerprints
// and checks every port's against that neighbor's replica. The inner vote
// may be hoisted out of the trials because it sees only the self sub-label
// and the replicas, never a coin; every received fingerprint is still
// checked per trial. A label that does not split sends empty certificates
// and rejects. readSub bounds every sub-label by 2³⁰ bits, so each layout
// meets NewFingerprintLayout's precondition. There is no cache: the
// sub-labels differ per node, so a shared memo would thrash.
func (c *compiled) Prepare(view View, own Label) Prepared {
	self, replicas, err := c.splitLabel(own, view.Deg)
	if err != nil {
		return &EqualityNode{deg: view.Deg}
	}
	vote := c.inner.Verify(view, self, replicas)
	return NewEqualityNode(view.Deg, self, vote, replicas, field.PrimeForLength, nil)
}
