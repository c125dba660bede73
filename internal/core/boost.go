package core

import (
	"fmt"

	"rpls/internal/bitstring"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Boost implements footnote 1 of the paper: running the verification
// procedure t times independently drives the error probability to 2^−Θ(t),
// so confidence 1−δ costs a factor O(log 1/δ) in certificate size.
//
// For a one-sided scheme the combination rule is conjunction: legal
// configurations still accept with probability 1, and an illegal one
// survives only if every repetition accepts, probability ≤ (1−p_reject)^t.
// For two-sided schemes each node takes the majority of its t outputs.
// Boost(r, 1) returns r unchanged.
func Boost(r RPLS, t int) RPLS {
	if t <= 1 {
		return r
	}
	return &boosted{inner: r, t: t}
}

type boosted struct {
	inner RPLS
	t     int
}

var _ RPLS = (*boosted)(nil)

func (b *boosted) Name() string {
	return fmt.Sprintf("%s×%d", b.inner.Name(), b.t)
}

func (b *boosted) OneSided() bool { return b.inner.OneSided() }

func (b *boosted) Label(c *graph.Config) ([]Label, error) {
	return b.inner.Label(c)
}

// Certs concatenates t independently drawn certificate vectors, each
// sub-certificate framed with a gamma length prefix.
func (b *boosted) Certs(view View, own Label, rng *prng.Rand) []Cert {
	writers := make([]bitstring.Writer, view.Deg)
	for rep := 0; rep < b.t; rep++ {
		certs := b.inner.Certs(view, own, rng.Fork(uint64(rep)))
		for i := 0; i < view.Deg; i++ {
			var c Cert
			if i < len(certs) {
				c = certs[i]
			}
			writers[i].WriteGamma(uint64(c.Len()))
			writers[i].WriteString(c)
		}
	}
	out := make([]Cert, view.Deg)
	for i := range out {
		out[i] = writers[i].String()
	}
	return out
}

var _ Preparer = (*boosted)(nil)

// Prepare implements Preparer: one node of the inner scheme answers every
// repetition, so the inner scheme's coin-free work runs once per node, not
// once per repetition.
func (b *boosted) Prepare(view View, own Label) Prepared {
	return &boostNode{inner: prepare(b.inner, view, own), t: b.t, deg: view.Deg, oneSided: b.inner.OneSided()}
}

// boostNode is a boosted scheme's prepared node: the inner node plus the
// repetition count and combination rule.
type boostNode struct {
	inner    Prepared
	t, deg   int
	oneSided bool
}

// Certs implements Prepared. Each repetition is one inner Certs call with
// the per-lane forks rngs[l].Fork(rep) — the streams the label path hands
// the inner scheme one lane at a time — and each (lane, port)'s
// repetitions are then framed into one slab of the run region: the framed
// sizes are computed once, into the call region, and the frames written
// into exactly that many bytes. Each inner call gives back the call
// region it took; its certificates live in the run region.
//
//pls:hotpath
func (n *boostNode) Certs(rngs []*prng.Rand, out [][]Cert, sc *Scratch) {
	lanes, deg := len(rngs), n.deg
	// Pass 1: collect every repetition's certificates. Each rep writes a
	// distinct window of reps, so all reps stay live for framing.
	reps := sc.certs.take(n.t * lanes * deg)
	repOut, repRngs := sc.lists.take(lanes), sc.streams(lanes)
	mark := sc.mark()
	for rep := 0; rep < n.t; rep++ {
		base := rep * lanes * deg
		for l, rng := range rngs {
			*repRngs[l] = *rng.Fork(uint64(rep))
			repOut[l] = reps[base+l*deg : base+(l+1)*deg]
		}
		n.inner.Certs(repRngs, repOut, sc)
		sc.release(mark)
	}
	// Pass 2: size each (lane, port)'s frame — gamma length prefix plus
	// payload per repetition, rep-major, the exact wire format of Certs —
	// then write the frames.
	sizes := sc.ints.take(lanes * deg)
	total := 0
	for k := range sizes {
		bits := 0
		for rep := 0; rep < n.t; rep++ {
			c := reps[rep*lanes*deg+k]
			bits += bitstring.GammaBits(uint64(c.Len())) + c.Len()
		}
		sizes[k] = (bits + 7) / 8
		total += sizes[k]
	}
	slab := sc.run.take(total)
	var w bitstring.Writer
	off := 0
	for l := range rngs {
		for i := 0; i < deg; i++ {
			k := l*deg + i
			w.ResetInto(slab[off : off : off+sizes[k]])
			for rep := 0; rep < n.t; rep++ {
				c := reps[rep*lanes*deg+k]
				w.WriteGamma(uint64(c.Len()))
				w.WriteString(c)
			}
			out[l][i] = w.TakeString()
			off += sizes[k]
		}
	}
}

// CoinFree implements Prepared from the inner node's report: a port
// carries t frames of the inner width w, t·(GammaBits(w)+w) bits, and an
// inner node that rejects every window rejects every lane under both
// combination rules.
func (n *boostNode) CoinFree(widths []int) (sized, rejects bool) {
	sized, rejects = n.inner.CoinFree(widths)
	if sized {
		for i, w := range widths {
			widths[i] = n.t * (bitstring.GammaBits(uint64(w)) + w)
		}
	}
	return sized, rejects
}

// Decide implements Prepared: DecideWindows reads exactly t framed
// repetitions per port and answers repetition j of every port as one
// window of the inner node — conjunction for a one-sided inner scheme,
// strict majority otherwise.
//
//pls:hotpath
func (n *boostNode) Decide(recv [][]Cert, sc *Scratch) uint64 {
	return DecideWindows(n.inner, recv, n.deg, n.t, !n.oneSided, sc)
}

func (b *boosted) Decide(view View, own Label, received []Cert) bool {
	if len(received) != view.Deg {
		return false
	}
	readers := make([]*bitstring.Reader, view.Deg)
	for i, c := range received {
		readers[i] = bitstring.NewReader(c)
	}
	accepts := 0
	for rep := 0; rep < b.t; rep++ {
		round := make([]Cert, view.Deg)
		for i := range readers {
			n, err := readers[i].ReadGamma()
			if err != nil {
				return false
			}
			if n > 1<<30 {
				return false
			}
			sub, err := readers[i].ReadString(int(n))
			if err != nil {
				return false
			}
			round[i] = sub
		}
		if b.inner.Decide(view, own, round) {
			accepts++
		} else if b.inner.OneSided() {
			return false // conjunction rule: any rejection kills acceptance
		}
	}
	for i := range readers {
		if readers[i].Remaining() != 0 {
			return false
		}
	}
	if b.inner.OneSided() {
		return true
	}
	return 2*accepts > b.t
}
