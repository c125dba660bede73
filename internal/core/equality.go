package core

import (
	"rpls/internal/bitstring"
	"rpls/internal/field"
	"rpls/internal/prng"
)

// EqualityNode is the prepared node of the schemes whose trial is Lemma
// A.1's equality test on every directed edge: a node sends a fingerprint
// of one string on every port, and checks each port's fingerprint against
// the string it expects from that neighbor. Compiled (Theorem 3.1) sends
// its self sub-label and expects its replica of each neighbor's; uniform
// (Lemma C.3) sends its payload and expects it on every port. Decide
// evaluates each run of ports that expect one string at all of the run's
// (lane, port) points in one EvalMany, so a cache sees batches wide enough
// for its table.
type EqualityNode struct {
	deg   int
	sent  bitstring.String
	lay   FingerprintLayout // sent's layout; the zero layout sends empty certificates
	vote  bool              // the coin-free vote: false rejects every lane
	runs  []equalityRun     // in port order; set only when vote holds
	width int               // the ports of each run
	cache *field.EvalCache  // nil evaluates directly
}

// equalityRun is the string that a run of ports expects and the layout of
// its certificates.
type equalityRun struct {
	s   bitstring.String
	lay FingerprintLayout
}

// NewEqualityNode returns the node of a view of degree deg that sends
// FingerprintCert(sent, prime(sent.Len()), ·) on every port, evaluating
// through cache (nil evaluates directly; a cache suits only polynomials
// that every node shares). expect holds the string each port expects, or
// one string that every port expects. When vote holds, a lane accepts
// exactly when every port's certificate is a fingerprint of its expected
// string's length over GF(prime(length)) that the string passes; when it
// fails, every lane rejects. Every string must be at most 2³⁰ bits
// (NewFingerprintLayout's precondition).
func NewEqualityNode(deg int, sent bitstring.String, vote bool, expect []bitstring.String, prime func(bits int) uint64, cache *field.EvalCache) *EqualityNode {
	n := &EqualityNode{deg: deg, sent: sent, lay: NewFingerprintLayout(sent.Len(), prime(sent.Len())), vote: vote, cache: cache}
	if vote {
		n.runs, n.width = make([]equalityRun, len(expect)), 1
		if len(expect) == 1 {
			n.width = deg
		}
		for i, s := range expect {
			n.runs[i] = equalityRun{s, NewFingerprintLayout(s.Len(), prime(s.Len()))}
		}
	}
	return n
}

// Certs implements Prepared: the sent string is evaluated at the lanes ×
// ports points rngs[l].Fork(i) in one EvalMany, and the word codec encodes
// every certificate into one slab, since all have the same length.
func (n *EqualityNode) Certs(rngs []*prng.Rand, out [][]Cert) {
	lanes, deg, p := len(rngs), n.deg, n.lay.p
	if n.lay.bits == 0 {
		for l := range rngs {
			clear(out[l][:deg])
		}
		return
	}
	buf := make([]uint64, 2*lanes*deg)
	xs, ys := buf[:lanes*deg], buf[lanes*deg:]
	for l, rng := range rngs {
		for i := 0; i < deg; i++ {
			xs[l*deg+i] = rng.Fork(uint64(i)).Uint64n(p)
		}
	}
	n.cache.EvalMany(n.sent, p, xs, ys)
	size := (n.lay.Bits() + 7) / 8
	slab := make([]byte, lanes*deg*size)
	for l := range rngs {
		for i := 0; i < deg; i++ {
			k := l*deg + i
			out[l][i] = n.lay.Encode(xs[k], ys[k], slab[k*size:(k+1)*size])
		}
	}
}

// Decide implements Prepared. Run by run, each live lane's certificates
// are parsed by the run's layout (lanes fail independently under
// adversarial input), the run's string is evaluated at all the points in
// one EvalMany, and a lane survives when every value matches. The slots of
// a rejected lane hold the point 0: evaluated, they cannot revive it.
func (n *EqualityNode) Decide(recv [][]Cert) uint64 {
	if !n.vote {
		return 0
	}
	lanes := len(recv)
	live := LaneMask(lanes)
	for l, r := range recv {
		if len(r) != n.deg {
			live &^= 1 << uint(l)
		}
	}
	w, k := n.width, lanes*n.width
	buf := make([]uint64, 3*k)
	xs, ys, got := buf[:k], buf[k:2*k], buf[2*k:]
	for r, run := range n.runs {
		if live == 0 {
			break
		}
		clear(xs)
		for l, certs := range recv {
			for i := 0; i < w && live&(1<<uint(l)) != 0; i++ {
				x, y, ok := run.lay.Decode(certs[r*w+i])
				if !ok {
					live &^= 1 << uint(l)
					break
				}
				xs[l*w+i], ys[l*w+i] = x, y
			}
		}
		n.cache.EvalMany(run.s, run.lay.p, xs, got)
		for j := range got {
			if got[j] != ys[j] {
				live &^= 1 << uint(j/w)
			}
		}
	}
	return live
}
