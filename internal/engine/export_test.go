package engine

import (
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// PreparedNodes is a scheme prepared as the executors prepare it, for the
// tests that check every node against the label path. Like an executor,
// it lends every call one Scratch, reset but never cleared, so a node
// that reads scratch it did not write in the same call sees stale bytes.
type PreparedNodes struct {
	p  prepared
	c  *graph.Config
	sc core.Scratch
}

// PrepareNodes caps s at multiplicity m (0: uncapped) as the validated
// entry points do, prepares it for c and labels, and returns the capped
// scheme — whose label path the nodes must match — with its nodes.
func PrepareNodes(s Scheme, m int, c *graph.Config, labels []core.Label) (Scheme, *PreparedNodes) {
	s = withCap(s, m)
	n := &PreparedNodes{c: c}
	n.p.reset(s, c, labels)
	return s, n
}

// Certs runs node v's send step, the cap's degradation included, on the
// given lanes, as a run of one node: the certificates it writes are valid
// until the next Certs call.
func (n *PreparedNodes) Certs(v int, rngs []*prng.Rand, out [][]core.Cert) {
	n.sc.ResetRun()
	n.p.nodes[v].Certs(rngs, out, &n.sc)
}

// Decide runs node v's vote on the given lanes.
func (n *PreparedNodes) Decide(v int, recv [][]core.Cert) uint64 {
	n.sc.ResetCall()
	return n.p.nodes[v].Decide(recv, &n.sc)
}

// CoinFree returns node v's coin-free report, the cap's included: the
// widths of its strings by port when sized, and whether it reports a
// coin-free rejection.
func (n *PreparedNodes) CoinFree(v int) (widths []int, sized, rejects bool) {
	widths = make([]int, n.c.G.Degree(v))
	sized, rejects = n.p.nodes[v].CoinFree(widths)
	return widths, sized, rejects
}
