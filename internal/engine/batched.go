package engine

import (
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// batchPlaneBudget bounds the certificate plane to lanes × slots entries,
// so huge graphs narrow the batch instead of exploding memory. Lane width
// is invisible in results: outcomes are per trial, so any chunking of the
// trial range produces the same Summary.
const batchPlaneBudget = 1 << 21

// Batched is the round kernel's wide mode: it snapshots the configuration's
// adjacency into a CSR layout once per batch and runs up to 64 Monte-Carlo
// trials ("lanes") through a single graph traversal. Certificates live in
// a flat lane-major plane indexed by CSR slot, so the exchange is one
// RevEdge lookup per (lane, port) and per-node votes are 64-wide bitmasks
// AND-reduced into per-trial acceptance.
//
// The batch path engages for single-round randomized schemes whose
// underlying RPLS implements core.LaneRPLS; everything else — deterministic
// schemes, multi-round schemes, lane-unaware schemes — falls back to the
// embedded Sequential executor, and coin-free schemes collapse to one
// execution replicated across the batch. Votes and Stats are bit-identical
// to Sequential for every trial at any lane width: lane l of a batch
// starting at trial t runs node streams prng.New(seed+t+l).Fork(v), the
// exact coins a sequential trial would draw.
type Batched struct {
	seq Sequential // fallback paths run the round kernel

	csr      graph.CSR
	plane    []core.Cert   // lane-major send plane: slot e of lane l at [l*slots+e]
	planeTop [][]core.Cert // per-lane CertsLanes output views, reused
	recv     []core.Cert   // lane-major receive windows, maxDeg per lane
	recvTop  [][]core.Cert // per-lane receive views passed to DecideLanes
	rngs     []*prng.Rand  // rngs[l] points into rngVals: reseated per node, never reallocated
	roots    []*prng.Rand  // roots[l] points into rootVals: reseated per batch
	rngVals  []prng.Rand
	rootVals []prng.Rand
	votes    []bool

	// Outcome of the last runLanes call: bit l of accept is lane l's
	// acceptance and lanes[l] its exact Stats.
	accept uint64
	lanes  [64]Stats
}

// NewBatched returns a batched executor with empty scratch.
func NewBatched() *Batched { return &Batched{} }

// Name implements Executor.
func (e *Batched) Name() string { return "batched" }

// Clone implements Executor: a fresh batched executor with empty scratch.
func (e *Batched) Clone() Executor { return NewBatched() }

// laneScheme returns the LaneRPLS behind s when the batch path applies: a
// single-round, non-deterministic scheme adapting a lane-aware RPLS. A
// multiplicity cap using the generic replication fallback rides the lane
// path — the transform is applied to each lane's plane rows, byte-for-byte
// what capScheme.Certs does sequentially — and its cap is returned; a
// scheme with a native CapCerts degradation has no generic lane transform
// and falls back to the embedded Sequential.
func laneScheme(s Scheme) (core.LaneRPLS, int, bool) {
	m := 0
	if w, ok := s.(capScheme); ok {
		if w.capped != nil {
			return nil, 0, false
		}
		m, s = w.m, w.inner
	}
	if s.Deterministic() || Rounds(s) > 1 {
		return nil, 0, false
	}
	r, ok := AsRPLS(s)
	if !ok {
		return nil, 0, false
	}
	lr, ok := r.(core.LaneRPLS)
	return lr, m, ok
}

// laneWidth returns the widest batch the plane budget allows for a graph
// with the given slot count.
func laneWidth(slots int) int {
	if slots == 0 {
		return 64
	}
	w := batchPlaneBudget / slots
	if w > 64 {
		w = 64
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Round implements Executor. Lane-aware randomized schemes run as a
// one-lane batch — the same CSR + plane path the wide batches take, so
// parity tests exercise it — and everything else delegates to the
// embedded Sequential.
func (e *Batched) Round(s Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	lane, mult, ok := laneScheme(s)
	if !ok {
		obsBatchFallback.Inc()
		return e.seq.Round(s, c, labels, seed)
	}
	e.runLanes(lane, mult, c, labels, seed, 1, true)
	return e.votes, e.lanes[0]
}

// runBatch executes trials [lo, hi) at seeds seed+lo … seed+hi−1 and
// writes outcome t to out[t-lo] when the batch path applies: coin-free
// schemes run once and replicate, lane-aware schemes run in plane-budgeted
// lanes. For any other scheme it runs nothing and reports false; the
// estimator then iterates the embedded kernel trial by trial.
//
//pls:hotpath
func (e *Batched) runBatch(s Scheme, c *graph.Config, labels []core.Label, seed uint64, lo, hi int, out []trialOutcome) bool {
	if IsCoinFree(s) {
		// Every trial of a coin-free scheme is the same execution.
		obsBatchCoinFree.Inc()
		votes, st := e.seq.Round(s, c, labels, seed+uint64(lo))
		o := trialOutcome{accepted: AllTrue(votes), st: st}
		for t := lo; t < hi; t++ {
			out[t-lo] = o
		}
		return true
	}
	lane, mult, ok := laneScheme(s)
	if !ok {
		obsBatchFallback.Inc()
		return false
	}
	maxW := laneWidth(2 * c.G.M())
	if maxW < 64 {
		// The plane budget, not the trial count, capped the lane width.
		obsBatchNarrowed.Inc()
	}
	for t := lo; t < hi; {
		w := maxW
		if hi-t < w {
			w = hi - t
		}
		t0 := obsBatchNanos.Start()
		e.runLanes(lane, mult, c, labels, seed+uint64(t), w, false)
		obsBatchNanos.Stop(t0)
		obsBatches.Inc()
		obsBatchLanes.Observe(int64(w))
		for l := 0; l < w; l++ {
			out[t-lo+l] = trialOutcome{accepted: e.accept&(1<<uint(l)) != 0, st: e.lanes[l]}
		}
		t += w
	}
	return true
}

// ensure sizes the plane, windows, and per-lane views for a batch of the
// given width over the current CSR snapshot. The makes are capacity-guarded
// grows: steady-state batches reuse everything.
//
//pls:hotpath
func (e *Batched) ensure(width int) {
	n, slots := e.csr.N(), e.csr.Slots()
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := e.csr.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if cap(e.plane) < width*slots {
		e.plane = make([]core.Cert, width*slots) //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
	}
	e.plane = e.plane[:width*slots]
	if cap(e.recv) < width*maxDeg {
		e.recv = make([]core.Cert, width*maxDeg) //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
	}
	e.recv = e.recv[:width*maxDeg]
	if cap(e.planeTop) < width {
		e.planeTop = make([][]core.Cert, width) //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
		e.recvTop = make([][]core.Cert, width)  //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
		e.rngs = make([]*prng.Rand, width)      //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
		e.roots = make([]*prng.Rand, width)     //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
		e.rngVals = make([]prng.Rand, width)    //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
		e.rootVals = make([]prng.Rand, width)   //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
		for l := 0; l < width; l++ {
			e.rngs[l] = &e.rngVals[l]
			e.roots[l] = &e.rootVals[l]
		}
	}
	e.planeTop = e.planeTop[:width]
	e.recvTop = e.recvTop[:width]
	e.rngs = e.rngs[:width]
	e.roots = e.roots[:width]
	if cap(e.votes) < n {
		e.votes = make([]bool, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
	}
	e.votes = e.votes[:n]
}

// runLanes is the batch core: one CSR rebuild, one certificate-generation
// traversal writing straight into the lane-major plane, one metering scan,
// and one decide traversal gathering via RevEdge and AND-reducing the
// per-node vote masks. Lane l draws the node streams of trial firstSeed+l.
// When needVotes is set, per-node votes of lane 0 land in e.votes. Under a
// multiplicity cap (mult >= 1, always the generic replication fallback —
// laneScheme rejects native degradations), each node's plane row of every
// lane is rewritten by core.CapReplicate right after generation: the same
// in-place transform capScheme.Certs applies on the sequential path, so
// planes — and therefore votes and stats — stay byte-identical.
//
//pls:hotpath
func (e *Batched) runLanes(lane core.LaneRPLS, mult int, c *graph.Config, labels []core.Label, firstSeed uint64, width int, needVotes bool) {
	e.csr.Reset(c.G)
	e.ensure(width)
	n, slots := e.csr.N(), e.csr.Slots()
	for l := 0; l < width; l++ {
		*e.roots[l] = *prng.New(firstSeed + uint64(l))
	}

	distinct := int64(0)
	for v := 0; v < n; v++ {
		base, deg := e.csr.RowStart[v], e.csr.Degree(v)
		for l := 0; l < width; l++ {
			*e.rngs[l] = *e.roots[l].Fork(uint64(v))
			e.planeTop[l] = e.plane[l*slots+base : l*slots+base+deg]
		}
		lane.CertsLanes(core.ViewOf(c, v), labels[v], e.rngs, e.planeTop)
		if mult > 0 {
			for l := 0; l < width; l++ {
				core.CapReplicate(e.planeTop[l], mult)
			}
		}
		distinct += distinctCount(false, mult, deg)
	}

	// Each lane's plane row is that trial's whole send side, metered
	// message by message exactly as sendStats meters a sequential round.
	// The structural distinct-message count is lane-invariant (it depends
	// on degrees and the cap, not coins).
	base := Stats{Rounds: 1, MaxLabelBits: core.MaxBits(labels), Messages: slots, DistinctMessages: distinct}
	for l := 0; l < width; l++ {
		st := base
		for _, cert := range e.plane[l*slots : (l+1)*slots] {
			st.meter(cert.Len(), 1)
		}
		e.lanes[l] = st
	}

	accept := core.LaneMask(width)
	maxDeg := len(e.recv) / max(width, 1)
	for v := 0; v < n; v++ {
		base, deg := e.csr.RowStart[v], e.csr.Degree(v)
		for l := 0; l < width; l++ {
			w := e.recv[l*maxDeg : l*maxDeg+deg]
			lanePlane := e.plane[l*slots : (l+1)*slots]
			for i := 0; i < deg; i++ {
				w[i] = lanePlane[e.csr.RevEdge[base+i]]
			}
			e.recvTop[l] = w
		}
		mask := lane.DecideLanes(core.ViewOf(c, v), labels[v], e.recvTop)
		accept &= mask
		if needVotes {
			e.votes[v] = mask&1 != 0
		}
	}
	if n == 0 {
		accept = 0 // an empty configuration accepts nowhere (AllTrue is false)
	}
	e.accept = accept
}
