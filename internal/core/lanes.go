package core

import (
	"fmt"

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
//   - CoinFree reports what every trial of the node shares. When the
//     length of the string Certs writes on each port does not depend on
//     the coins, it sets widths[i] (len(widths) is view.Deg) to exactly
//     that length and reports sized; otherwise it reports !sized, and
//     the caller ignores widths. It reports rejects only when Decide
//     returns 0 on every input, whatever the node receives (its coin-free
//     vote fails); a node that cannot tell reports false. Both reports
//     are part of the bit-equivalence: the engine meters sized widths
//     once instead of metering what Certs writes, computes a sized node's
//     certificates only when a deciding neighbor reads them, and decides
//     nothing in an acceptance-only run that holds a rejecting node.
//
// rngs[l] is the node's stream for lane l (the executors derive it as
// prng.New(seed+l).Fork(v)), so the coins of a lane are the ones the label
// path would draw for that trial.
//
// Every call draws its buffers from sc, the caller's Scratch: the bytes
// of the certificates Certs writes from its run region, everything else
// from its call region (see Scratch for the two lifetimes). A node passes
// sc on to the nodes it wraps.
type Prepared interface {
	Certs(rngs []*prng.Rand, out [][]Cert, sc *Scratch)
	Decide(recv [][]Cert, sc *Scratch) uint64
	CoinFree(widths []int) (sized, rejects bool)
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
// l by calling the label path with lane l's coins and strings. It ignores
// the scratch, since a label path allocates what it returns: label paths
// are the oracles, and they stay as the paper states them. A Broadcast
// node is a deterministic scheme's: it sends its label on every port, the
// message of a deterministic round, without calling Certs and without
// allocating.
type LabelNode struct {
	Path      LabelPath
	View      View
	Own       Label
	Broadcast bool
}

// Certs implements Prepared.
//
//pls:hotpath
func (n *LabelNode) Certs(rngs []*prng.Rand, out [][]Cert, _ *Scratch) {
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
func (n *LabelNode) Decide(recv [][]Cert, _ *Scratch) uint64 {
	var mask uint64
	for l, r := range recv {
		if n.Path.Decide(n.View, n.Own, r) {
			mask |= 1 << uint(l)
		}
	}
	return mask
}

// CoinFree implements Prepared: a Broadcast node sends its label on every
// port; a label path's lengths and vote are its own, so any other node
// reports neither.
func (n *LabelNode) CoinFree(widths []int) (sized, rejects bool) {
	if !n.Broadcast {
		return false, false
	}
	for i := range widths {
		widths[i] = n.Own.Len()
	}
	return true, false
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
//
// FingerprintCert and ReadFingerprintCert are the label path's codec: they
// frame and parse the certificate field by field through bitstring's
// Writer and Reader, the paper's model of the wire, and they are the
// reference the prepared nodes' word codec (FingerprintLayout) is tested
// against.
func FingerprintCert(s bitstring.String, p uint64, rng *prng.Rand) Cert {
	var w bitstring.Writer
	w.WriteGamma(uint64(s.Len()))
	field.NewFingerprint(s, p, rng).Encode(&w)
	return w.String()
}

// ReadFingerprintCert parses a FingerprintCert that must fingerprint a
// string of the given length over GF(p). It fails on a malformed or
// different length, a value outside the field, and trailing bits. Since
// gamma codes decode only in canonical form, it accepts exactly the
// certificates FingerprintLayout.Decode accepts, with the same (x, y).
func ReadFingerprintCert(cert Cert, bits int, p uint64) (field.Fingerprint, bool) {
	r := bitstring.NewReader(cert)
	n, err := r.ReadGamma()
	if err != nil || n != uint64(bits) {
		return field.Fingerprint{}, false
	}
	fp, err := field.DecodeFingerprint(r, p)
	return fp, err == nil && r.Remaining() == 0
}

// FingerprintLayout is the fixed wire layout of every fingerprint
// certificate of one string of a given length n over GF(p): gamma(n),
// then x and y in w = UintBits(p−1) bits each, L = GammaBits(n) + 2w bits
// in all — the layout FingerprintCert writes. The gamma code of n is
// GammaBits(n) bits whose value is n+1, so the whole certificate is the
// number (n+1)‖x‖y. A prepared node fixes the layouts it will write and
// read at Prepare and moves each certificate as two 64-bit words: its
// encoder and decoder are a handful of shifts, where the Writer and Reader
// walk the fields in chunks of at most 8 bits.
type FingerprintLayout struct {
	p      uint64
	prefix uint64 // the gamma code of n, read as a number: n+1
	g, w   uint   // widths of the gamma code and of each field element
	bits   uint   // L
}

// NewFingerprintLayout returns the layout of the fingerprint certificates
// of n-bit strings over GF(p). Its precondition is n ≤ 2³⁰ (the bound
// readSub and CapSplit put on the lengths they decode) and L ≤ 128, so
// that a certificate fits in two words; every p = PrimeForLength(n) meets
// it (L ≤ 125). It panics when the precondition fails: a layout is fixed
// by the scheme and by lengths its decoders have already bounded, so a
// misfit is a programming error.
func NewFingerprintLayout(n int, p uint64) FingerprintLayout {
	if n < 0 || n > 1<<30 {
		panic(fmt.Sprintf("core: fingerprint layout of a %d-bit string", n))
	}
	g, w := uint(bitstring.GammaBits(uint64(n))), uint(bitstring.UintBits(p-1))
	if g+2*w > 128 {
		panic(fmt.Sprintf("core: %d-bit fingerprint certificate (n=%d, p=%d) does not fit in two words", g+2*w, n, p))
	}
	return FingerprintLayout{p: p, prefix: uint64(n) + 1, g: g, w: w, bits: g + 2*w}
}

// Bits returns L, the length of every certificate in the layout.
func (f FingerprintLayout) Bits() int { return int(f.bits) }

// Encode returns the certificate gamma(n) ‖ x ‖ y, stored in buf, which
// must hold (L+7)/8 bytes; the result aliases buf. x and y must be < p.
// The certificate is bit for bit the one FingerprintCert frames for the
// point x and the value y, padding included.
func (f FingerprintLayout) Encode(x, y uint64, buf []byte) Cert {
	hi, lo := place(f.prefix<<(64-f.g), 0, x, f.g+f.w)
	hi, lo = place(hi, lo, y, f.bits)
	return bitstring.FromWords(hi, lo, int(f.bits), buf)
}

// Decode parses a certificate in the layout: the length must be L, the
// leading G bits the gamma code of n, and x and y below p. Because gamma
// codes are canonical, this accepts exactly what ReadFingerprintCert(cert,
// n, p) accepts and returns the same (x, y).
func (f FingerprintLayout) Decode(cert Cert) (x, y uint64, ok bool) {
	if cert.Len() != int(f.bits) {
		return 0, 0, false
	}
	hi, lo := cert.Words()
	x, y = take(hi, lo, f.g, f.w), take(hi, lo, f.g+f.w, f.w)
	return x, y, hi>>(64-f.g) == f.prefix && x < f.p && y < f.p
}

// place ORs v into the left-aligned word pair (hi, lo) so that its lowest
// bit lands at bit end−1; v must fit in the end bits before it.
func place(hi, lo, v uint64, end uint) (uint64, uint64) {
	if end <= 64 {
		return hi | v<<(64-end), lo
	}
	s := end - 64
	return hi | v>>s, lo | v<<(64-s)
}

// take returns the w bits of the left-aligned word pair (hi, lo) that
// start at bit off.
func take(hi, lo uint64, off, w uint) uint64 {
	var v uint64
	if off < 64 {
		v = hi<<off | lo>>(64-off)
	} else {
		v = lo << (off - 64)
	}
	return v >> (64 - w)
}
