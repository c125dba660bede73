package core

import (
	"rpls/internal/bitstring"
	"rpls/internal/field"
	"rpls/internal/prng"
)

// LaneRPLS is the optional batched extension of RPLS. A batched executor
// runs up to 64 Monte-Carlo trials ("lanes") through one graph traversal;
// a scheme implementing LaneRPLS generates certificates and decisions for
// all lanes of a node in one call. It amortizes across the lanes what the
// one-trial entry points repeat per trial — for a scheme that is not
// prepared (see Preparer), label parsing, prime selection and any
// coin-free check — and hands every lane's evaluation points to one
// field.Poly.EvalMany call, which walks a short string's coefficients
// once for all of them.
//
// The contract is strict bit-equivalence with the one-lane entry points:
//
//   - CertsLanes fills out[l][i] for every lane l and port i < view.Deg
//     with exactly Certs(view, own, rngs[l])[i], using the empty Cert for
//     ports past the end of that slice. Every slot must be written — the
//     executor hands in reused storage.
//   - DecideLanes returns a bitmask whose bit l is exactly
//     Decide(view, own, recv[l]).
//
// rngs[l] is the node's forked stream for lane l (the executor derives it
// as prng.New(seed+l).Fork(v)), so coin draws inside a lane are the same
// streams the sequential path would use. len(rngs) and len(recv) are at
// most 64.
type LaneRPLS interface {
	RPLS
	CertsLanes(view View, own Label, rngs []*prng.Rand, out [][]Cert)
	DecideLanes(view View, own Label, recv [][]Cert) uint64
}

// LaneMask returns the bitmask with the low `lanes` bits set — the
// all-accept vote for a batch of that width.
func LaneMask(lanes int) uint64 {
	if lanes >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(lanes) - 1
}

// FingerprintLanes writes the standard fingerprint certificate — gamma
// length prefix plus (x, A(x)) over GF(p) — for every (lane, port) pair,
// drawing x from rngs[l].Fork(i) exactly as the one-lane schemes do, and
// evaluating the shared polynomial at all points in one EvalMany call
// (through cache when the scheme provides one; nil evaluates directly). It
// is the one certificate writer of the compiled scheme — Certs and its
// prepared form call it with one lane, CertsLanes with every lane — and
// the core of the uniform CertsLanes.
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

var _ LaneRPLS = (*compiled)(nil)

// CertsLanes implements LaneRPLS: the label is parsed and the field chosen
// once per batch, and the writer of Certs — FingerprintLanes — evaluates
// the self sub-label's polynomial at all lanes × ports points in one
// EvalMany call.
func (c *compiled) CertsLanes(view View, own Label, rngs []*prng.Rand, out [][]Cert) {
	n := c.split(view, own)
	if n.err != nil {
		// Same as Certs: a malformed label sends empty certificates.
		for l := range rngs {
			for i := 0; i < view.Deg; i++ {
				out[l][i] = Cert{}
			}
		}
		return
	}
	// No cache: the self sub-label differs per node, so a shared one-entry
	// memo would thrash.
	FingerprintLanes(n.self, n.p, rngs, view.Deg, nil, out)
}

// DecideLanes implements LaneRPLS. Per port, each lane's certificate is
// parsed individually (lanes fail independently under adversarial input),
// but the replica polynomial is evaluated at all surviving lanes' points
// in one EvalMany call, and the inner deterministic verifier — which sees
// only the replicas, never the coins — runs once for the whole batch.
func (c *compiled) DecideLanes(view View, own Label, recv [][]Cert) uint64 {
	lanes := len(recv)
	self, replicas, err := c.splitLabel(own, view.Deg)
	if err != nil {
		return 0
	}
	live := LaneMask(lanes)
	for l, r := range recv {
		if len(r) != view.Deg {
			live &^= 1 << uint(l)
		}
	}
	buf := make([]uint64, 3*lanes)
	xs, ys, got := buf[:lanes], buf[lanes:2*lanes], buf[2*lanes:]
	for i := 0; i < view.Deg && live != 0; i++ {
		rep := replicas[i]
		p := field.PrimeForLength(rep.Len())
		for l := 0; l < lanes; l++ {
			xs[l], ys[l] = 0, 0
			if live&(1<<uint(l)) == 0 {
				continue
			}
			r := bitstring.NewReader(recv[l][i])
			n, err := r.ReadGamma()
			if err != nil || int(n) != rep.Len() {
				live &^= 1 << uint(l)
				continue
			}
			fp, err := field.DecodeFingerprint(r, p)
			if err != nil || r.Remaining() != 0 {
				live &^= 1 << uint(l)
				continue
			}
			xs[l], ys[l] = fp.X, fp.Y
		}
		if live == 0 {
			break
		}
		field.NewPoly(rep, p).EvalMany(xs, got)
		for l := 0; l < lanes; l++ {
			if live&(1<<uint(l)) != 0 && got[l] != ys[l] {
				live &^= 1 << uint(l)
			}
		}
	}
	if live == 0 {
		return 0
	}
	if !c.inner.Verify(view, self, replicas) {
		return 0
	}
	return live
}
