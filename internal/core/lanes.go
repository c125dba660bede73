package core

import (
	"rpls/internal/bitstring"
	"rpls/internal/field"
	"rpls/internal/prng"
)

// Preparer is the optional trial-invariant extension of RPLS. Labels are
// fixed across the trials of a Monte-Carlo estimate, so the part of Certs
// and Decide that depends only on a node's view and label — parsing the
// label, choosing the field, any check that never sees a coin — can run
// once per node instead of once per trial. Prepare does that part and
// returns the node's Prepared state, which answers every trial. A scheme
// without the extension is answered through its label path by a
// LabelNode.
type Preparer interface {
	RPLS
	Prepare(view View, own Label) Prepared
}

// Prepared is one node's trial-invariant state. It answers 1 to 64
// Monte-Carlo trials ("lanes") per call, writing into storage the caller
// owns. It draws no coins of its own, is immutable once built, and is
// safe for concurrent use: trial-parallel workers share it read-only.
//
// The contract is strict bit-equivalence with the label path of the
// scheme it was prepared from, for every input, malformed labels
// included:
//
//   - Certs sets out[l][i], for every lane l and port i < view.Deg, to
//     exactly Certs(view, own, rngs[l])[i], or to the empty Cert past the
//     end of that slice. It writes every slot: out is reused storage.
//   - Decide returns a mask whose bit l is exactly
//     Decide(view, own, recv[l]).
//
// rngs[l] is the node's stream for lane l (the executors derive it as
// prng.New(seed+l).Fork(v)), so the coins of a lane are the ones the label
// path would draw for that trial.
type Prepared interface {
	Certs(rngs []*prng.Rand, out [][]Cert)
	Decide(recv [][]Cert) uint64
}

// prepare returns r's node for the given view and label: r's own when it
// implements Preparer, otherwise a LabelNode over its label path.
func prepare(r RPLS, view View, own Label) Prepared {
	if p, ok := r.(Preparer); ok {
		return p.Prepare(view, own)
	}
	return &LabelNode{Path: r, View: view, Own: own}
}

// LabelPath is the label path of one round: a node's certificates from its
// label and coins, and its vote on the strings it received. RPLS has it,
// and so does the engine's Scheme.
type LabelPath interface {
	Certs(view View, own Label, rng *prng.Rand) []Cert
	Decide(view View, own Label, received []Cert) bool
}

// LabelNode is the generic Prepared: it prepares nothing and answers lane
// l by calling the label path with lane l's coins and strings. A
// Broadcast node is a deterministic scheme's: it sends its label on every
// port, the message of a deterministic round, without calling Certs and
// without allocating.
type LabelNode struct {
	Path      LabelPath
	View      View
	Own       Label
	Broadcast bool
}

// Certs implements Prepared.
//
//pls:hotpath
func (n *LabelNode) Certs(rngs []*prng.Rand, out [][]Cert) {
	for l, rng := range rngs {
		row := out[l][:n.View.Deg]
		if n.Broadcast {
			for i := range row {
				row[i] = n.Own
			}
			continue
		}
		certs := n.Path.Certs(n.View, n.Own, rng)
		for i := range row {
			row[i] = Cert{}
			if i < len(certs) {
				row[i] = certs[i]
			}
		}
	}
}

// Decide implements Prepared.
//
//pls:hotpath
func (n *LabelNode) Decide(recv [][]Cert) uint64 {
	var mask uint64
	for l, r := range recv {
		if n.Path.Decide(n.View, n.Own, r) {
			mask |= 1 << uint(l)
		}
	}
	return mask
}

// LaneMask returns the bitmask with the low `lanes` bits set — the
// all-accept vote for a batch of that width.
func LaneMask(lanes int) uint64 {
	if lanes >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(lanes) - 1
}

// FingerprintCert is the standard fingerprint certificate of s over GF(p):
// the gamma-coded length of s, then (x, A(x)) for a point x drawn from
// rng (Lemma A.1). The length makes a string distinguishable from itself
// with trailing zero bits, which induces the same polynomial.
func FingerprintCert(s bitstring.String, p uint64, rng *prng.Rand) Cert {
	var w bitstring.Writer
	w.WriteGamma(uint64(s.Len()))
	field.NewFingerprint(s, p, rng).Encode(&w)
	return w.String()
}

// ReadFingerprintCert parses a FingerprintCert that must fingerprint a
// string of the given length over GF(p). It fails on a malformed or
// different length, a value outside the field, and trailing bits.
func ReadFingerprintCert(cert Cert, bits int, p uint64) (field.Fingerprint, bool) {
	r := bitstring.NewReader(cert)
	n, err := r.ReadGamma()
	if err != nil || n != uint64(bits) {
		return field.Fingerprint{}, false
	}
	fp, err := field.DecodeFingerprint(r, p)
	return fp, err == nil && r.Remaining() == 0
}

// FingerprintLanes writes FingerprintCert(s, p, rngs[l].Fork(i)) for every
// (lane, port) pair, evaluating the polynomial at all points in one
// EvalMany call (through cache when the scheme provides one; nil evaluates
// directly). It is the certificate writer of the prepared compiled and
// uniform nodes.
//
// All certificates of a call have the same bit length, so they are framed
// into one shared slab: two allocations per call — evaluation points and
// slab — instead of two per certificate.
func FingerprintLanes(s bitstring.String, p uint64, rngs []*prng.Rand, deg int, cache *field.EvalCache, out [][]Cert) {
	lanes := len(rngs)
	buf := make([]uint64, 2*lanes*deg)
	xs, ys := buf[:lanes*deg], buf[lanes*deg:]
	for l, rng := range rngs {
		row := xs[l*deg : (l+1)*deg]
		for i := 0; i < deg; i++ {
			row[i] = rng.Fork(uint64(i)).Uint64n(p)
		}
	}
	cache.EvalMany(s, p, xs, ys)
	width := bitstring.UintBits(p - 1)
	n := uint64(s.Len())
	certBytes := (bitstring.GammaBits(n) + 2*width + 7) / 8
	slab := make([]byte, lanes*deg*certBytes)
	var w bitstring.Writer
	for l := 0; l < lanes; l++ {
		for i := 0; i < deg; i++ {
			k := (l*deg + i) * certBytes
			w.ResetInto(slab[k : k : k+certBytes])
			w.WriteGamma(n)
			w.WriteUint(xs[l*deg+i], width)
			w.WriteUint(ys[l*deg+i], width)
			out[l][i] = w.TakeString()
		}
	}
}
