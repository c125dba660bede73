package engine

import (
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// The engine half of the congestion axis (see core/congestion.go for the
// model and the wire formats). WithMultiplicity(m) lands here: the
// validated entry points wrap the scheme in a capScheme, and the lane loop
// wraps every node it prepares for one in a capNode, so one wrapper
// applies the cap around every scheme's own nodes. Executors read the cap
// back through Multiplicity to meter the structural distinct-message
// count (Stats.DistinctMessages) without inspecting payloads.

// capScheme caps a randomized scheme's per-round message multiplicity.
// Its label path is a capNode around a core.LabelNode over the inner
// scheme's, so the label path and the executors' nodes share one
// implementation. Deterministic schemes are never wrapped: they broadcast
// their label on every port already, satisfying every cap.
type capScheme struct {
	inner Scheme
	m     int
	merge bool // core.CapMerge each class; core.CapReplicate otherwise
}

// withCap wraps s to respect multiplicity cap m. m <= 0 (uncapped) and
// deterministic schemes return s unchanged, so the classic engine is the
// degenerate point of the axis, bit for bit. The degradation follows from
// the model. A one-sided scheme merges each class into one message whose
// receiver checks every member: an extra check never rejects an honest
// configuration of a one-sided scheme. A two-sided scheme replicates one
// member per class, keeping one check per port, because each extra check
// is one more chance to reject a legal configuration. Merging stays
// single-round: the cap applies once per trial to whole strings, before
// any sharding, so a capped t-round scheme replicates its strings and the
// shard layout then splits them.
func withCap(s Scheme, m int) Scheme {
	if m <= 0 || s.Deterministic() {
		return s
	}
	return capScheme{inner: s, m: m, merge: s.OneSided() && Rounds(s) == 1}
}

// Multiplicity reports the message-multiplicity cap a scheme runs under:
// m >= 1 for a capped scheme, 0 for the classic unconstrained round.
func Multiplicity(s Scheme) int {
	if w, ok := s.(capScheme); ok {
		return w.m
	}
	return 0
}

func (w capScheme) Name() string                                { return w.inner.Name() }
func (w capScheme) Label(c *graph.Config) ([]core.Label, error) { return w.inner.Label(c) }
func (w capScheme) Deterministic() bool                         { return false }
func (w capScheme) OneSided() bool                              { return w.inner.OneSided() }

func (w capScheme) Certs(view core.View, own core.Label, rng *prng.Rand) []core.Cert {
	out := [][]core.Cert{make([]core.Cert, view.Deg)}
	w.labelNode(view, own).Certs([]*prng.Rand{rng}, out)
	return out[0]
}

func (w capScheme) Decide(view core.View, own core.Label, received []core.Cert) bool {
	return w.labelNode(view, own).Decide([][]core.Cert{received}) != 0
}

// labelNode is the cap around the inner scheme's label path at one node.
func (w capScheme) labelNode(view core.View, own core.Label) *capNode {
	n := w.node(&core.LabelNode{Path: w.inner, View: view, Own: own}, view.Deg)
	return &n
}

// node wraps inner, the node of a view of degree deg, in the cap.
func (w capScheme) node(inner core.Prepared, deg int) capNode {
	return capNode{inner: inner, deg: deg, m: w.m, merge: w.merge}
}

// capNode applies a cap around one node: the inner node — the scheme's
// own prepared node, or a core.LabelNode — sends and reads strings as if
// uncapped, and the wrapper degrades what it sends and, under merging,
// splits what it receives.
type capNode struct {
	inner  core.Prepared
	deg, m int
	merge  bool
}

// Certs implements core.Prepared: the inner node's strings, degraded lane
// by lane.
//
//pls:hotpath
func (n *capNode) Certs(rngs []*prng.Rand, out [][]core.Cert) {
	n.inner.Certs(rngs, out)
	for l := range rngs {
		if n.merge {
			core.CapMerge(out[l][:n.deg], n.m)
		} else {
			core.CapReplicate(out[l][:n.deg], n.m)
		}
	}
}

// Decide implements core.Prepared. A replicated string is a well-formed
// uncapped string, so the inner node decides replicated rounds as they
// arrived. A merged round is answered by core.DecideWindows over each
// class message's CapMerge member list (count 0: the list's leading gamma
// code gives its size), and a lane accepts when every window does.
func (n *capNode) Decide(recv [][]core.Cert) uint64 {
	if !n.merge {
		return n.inner.Decide(recv)
	}
	return core.DecideWindows(n.inner, recv, n.deg, 0, false)
}

// distinctCount is the structural distinct-message count of one node in
// one round: the number of payload classes the scheme GUARANTEES, not the
// number of payloads that happened to differ. A deterministic scheme
// broadcasts its label (one class); a capped scheme mints at most m; an
// unconstrained randomized scheme may use every port. Structural counting
// is what makes the counter conserved and byte-identical across executors,
// parallelism, and lanes without comparing payload bytes on the hot path.
//
//pls:hotpath
func distinctCount(det bool, mult, deg int) int64 {
	if deg == 0 {
		return 0
	}
	d := deg
	if det {
		d = 1
	} else if mult > 0 && mult < deg {
		d = mult
	}
	return int64(d)
}
