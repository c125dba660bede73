package engine

import (
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// PreparedNodes is a scheme prepared as the executors prepare it, for the
// tests that check every node against the label path.
type PreparedNodes struct{ p prepared }

// PrepareNodes caps s at multiplicity m (0: uncapped) as the validated
// entry points do, prepares it for c and labels, and returns the capped
// scheme — whose label path the nodes must match — with its nodes.
func PrepareNodes(s Scheme, m int, c *graph.Config, labels []core.Label) (Scheme, *PreparedNodes) {
	s = withCap(s, m)
	n := &PreparedNodes{}
	n.p.reset(s, c, labels)
	return s, n
}

// Certs runs node v's send step, the cap's degradation included, on the
// given lanes.
func (n *PreparedNodes) Certs(v int, rngs []*prng.Rand, out [][]core.Cert) {
	n.p.nodes[v].Certs(rngs, out)
}

// Decide runs node v's vote on the given lanes.
func (n *PreparedNodes) Decide(v int, recv [][]core.Cert) uint64 {
	return n.p.nodes[v].Decide(recv)
}
