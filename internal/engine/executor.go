package engine

import (
	"strings"

	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Executor runs one verification of a scheme: in each of the scheme's
// t >= 1 synchronous rounds every node sends one string per incident port
// and receives one string per port, and after the last round every node
// outputs a boolean. Implementations may keep scratch buffers between
// calls, so a single Executor value must not be shared between concurrent
// callers; Clone hands each extra worker its own.
type Executor interface {
	// Name identifies the executor in reports and benchmarks.
	Name() string
	// Round executes the verification. The returned votes slice is scratch
	// owned by the executor, valid only until the next Round call.
	Round(s Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats)
	// Clone returns a new executor of the same kind and configuration whose
	// scratch is independent of the receiver's. The trial-parallel
	// estimator and Sweep clone the caller's executor once per extra
	// worker. Sequential and Batched keep the clones they hand out there
	// and hand the same ones out again on the next call, so a repeated
	// Estimate or Sweep reuses every worker's scratch; the clones run only
	// inside calls on their executor, which the one-caller rule already
	// serializes. Clone itself always returns a fresh executor.
	Clone() Executor
}

// executorTable is the one name → constructor table: NewExecutor,
// ExecutorNames, the campaign spec validator, and the CLIs' -exec flags all
// resolve executor names through it.
var executorTable = []struct {
	name string
	mk   func() Executor
}{
	{"sequential", func() Executor { return NewSequential() }},
	{"batched", func() Executor { return NewBatched() }},
}

// ExecutorNames lists the executor names NewExecutor accepts, in table
// order.
func ExecutorNames() []string {
	names := make([]string, len(executorTable))
	for i, e := range executorTable {
		names[i] = e.name
	}
	return names
}

// NewExecutor returns a fresh executor by name. Any other name — including
// the retired "pool" and "goroutines" — is rejected with an *OptionError
// naming WithExecutor rather than re-mapped, because campaign cell IDs
// encode the executor: an alias would give one execution two IDs.
func NewExecutor(name string) (Executor, error) {
	for _, e := range executorTable {
		if e.name == name {
			return e.mk(), nil
		}
	}
	return nil, optionErr("WithExecutor", "unknown executor %q (%s)", name, strings.Join(ExecutorNames(), ", "))
}

// meter accounts one b-bit message leaving a node: the wire total grows
// by b, and b competes for κ (MaxCertBits) and the port maximum. It is the
// single definition of all three quantities.
//
//pls:hotpath
func (st *Stats) meter(b int) {
	st.TotalWireBits += int64(b)
	if b > st.MaxCertBits {
		st.MaxCertBits = b
	}
	if b > st.MaxPortBits {
		st.MaxPortBits = b
	}
}

// meterShards accounts one b-bit string sent as the t >= 1 shards of
// core.Shard's layout, one per round: the widest shard, of
// w = core.ShardWidth(b, t) bits, is metered as a message and the other
// b − w bits join the wire total. That is exactly what metering each
// materialized shard through meter gives, since no shard is wider than
// the first; t = 1 is meter(b).
//
//pls:hotpath
func (st *Stats) meterShards(b, t int) {
	w := b
	if t > 1 {
		w = core.ShardWidth(b, t)
	}
	st.meter(w)
	st.TotalWireBits += int64(b - w)
}

// prepared is a scheme made ready for the lane loop on one configuration
// and label assignment: one core.Prepared node per graph node, and what the
// wrappers around the base scheme change in the loop. Sharding changes
// only the metering, so the nodes are those of the base scheme; a cap
// wraps each of them in a capNode. Once built, a prepared scheme is
// read-only; the estimator's workers share it.
type prepared struct {
	nodes    []core.Prepared
	adapters []core.LabelNode // storage of the label-path nodes, reused across rounds
	capped   []capNode        // storage of the cap's node wrappers, reused across rounds
	det      bool             // a deterministic round: coin-free, one distinct message per node
	rounds   int              // each string is metered as the shards of this many rounds
	mult     int              // the multiplicity cap; 0 is unconstrained
}

// reset prepares s for the configuration and labels, reusing the
// receiver's storage: a scheme with a core.Preparer behind its FromRPLS
// adapter prepares its own nodes; every other scheme — deterministic, or
// adapted from neither core type — is answered by core.LabelNodes, which
// allocate nothing here. Under a cap, each node is wrapped in the cap's
// capNode.
//
//pls:hotpath
func (p *prepared) reset(s Scheme, c *graph.Config, labels []core.Label) {
	p.det, p.rounds, p.mult = s.Deterministic(), Rounds(s), Multiplicity(s)
	cs, capped := s.(capScheme)
	if capped {
		s = cs.inner
	}
	if w, ok := s.(sharded); ok {
		s = w.Scheme
	}
	var pr core.Preparer
	if r, ok := AsRPLS(s); ok {
		pr, _ = r.(core.Preparer)
	}
	n := c.G.N()
	p.nodes = grow(p.nodes, n)
	if pr == nil {
		p.adapters = grow(p.adapters, n)
	}
	if capped {
		p.capped = grow(p.capped, n)
	}
	for v := range p.nodes {
		view := core.ViewOf(c, v)
		if pr != nil {
			p.nodes[v] = pr.Prepare(view, labels[v])
		} else {
			p.adapters[v] = core.LabelNode{Path: s, View: view, Own: labels[v], Broadcast: s.Deterministic()}
			p.nodes[v] = &p.adapters[v]
		}
		if capped {
			p.capped[v] = cs.node(p.nodes[v], view.Deg)
			p.nodes[v] = &p.capped[v]
		}
	}
}

// kernel is the one lane loop both executors run, with its reused
// scratch. It snapshots the configuration's adjacency into a CSR layout
// and runs up to 64 Monte-Carlo trials ("lanes") through one traversal:
// every node's prepared node writes its lanes' strings straight into its
// own block of a node-major plane, the block is metered lane by lane, and
// every node decides all lanes from windows gathered through one RevEdge
// lookup per port, AND-reducing per-node vote masks into per-trial
// acceptance (an estimate's run stops deciding once every lane has
// rejected; Round decides every node). Lane l of a batch starting at
// trial t runs node streams prng.New(seed+t+l).Fork(v), so votes and
// Stats do not depend on the lane width. Sequential runs the loop one
// lane wide, Batched up to 64.
//
// The loop allocates nothing once warm: the plane, the windows and the
// scratch every node call borrows (sc) are kept across runs, and grow
// only when a graph or a call outgrows them.
type kernel struct {
	csr      graph.CSR
	plane    []core.Cert // node-major send plane: see planeBlock
	recv     []core.Cert // one node's receive windows, lane l at [l*deg:(l+1)*deg]
	votes    []bool
	round    prepared     // the nodes of the last Round call, reused
	sc       core.Scratch // lent to every node call
	rows     [64][]core.Cert
	windows  [64][]core.Cert
	rngs     [64]*prng.Rand // rngs[l] points at rngVals[l]
	rngVals  [64]prng.Rand
	rootVals [64]prng.Rand

	// Outcome of the last run: bit l of accept is lane l's acceptance and
	// stats[l] its exact Stats.
	accept uint64
	stats  [64]Stats

	// clones are the worker executors this kernel's executor handed out,
	// kept for its next Estimate or Sweep (see workerExecutors).
	clones []Executor
}

// laneExecutor is implemented by the engine's executors: their lane loop
// and its widest batch.
type laneExecutor interface {
	lanes() (*kernel, int)
}

// workerExecutors returns n worker executors: e first, then n−1 clones of
// it. Sequential and Batched keep the clones they hand out, so a repeated
// call on the same executor reuses every worker's scratch; any other
// executor is cloned afresh.
func workerExecutors(e Executor, n int) []Executor {
	execs := make([]Executor, n)
	execs[0] = e
	le, ok := e.(laneExecutor)
	if !ok {
		for i := 1; i < n; i++ {
			execs[i] = e.Clone()
		}
		return execs
	}
	k, _ := le.lanes()
	for len(k.clones) < n-1 {
		k.clones = append(k.clones, e.Clone())
	}
	copy(execs[1:], k.clones)
	return execs
}

// grow returns s resized to n, reallocating only when n exceeds its
// capacity, so steady-state rounds reuse the storage.
//
//pls:hotpath
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	return s[:n]
}

// Round implements Executor for every t >= 1, the classic round of §2.1
// being t = 1: one trial at seed runs as a one-lane batch, from nodes
// prepared for this call. The deterministic round is the zero-alloc hot
// path: the plsvet hotalloc analyzer rejects allocating constructs in
// every //pls:hotpath function at the AST level,
// TestSequentialRoundAllocs and TestBatchedRoundAllocs assert the warm
// round allocates nothing, and the benchgate allocation band locks the
// measured steady state in CI.
//
//pls:hotpath
func (k *kernel) Round(s Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	k.round.reset(s, c, labels)
	k.run(&k.round, c, labels, seed, 1, true)
	return k.votes, k.stats[0]
}

// trials executes trials [lo, hi) at seeds seed+lo … seed+hi−1 and writes
// outcome t to out[t-lo]. A deterministic scheme runs once and is
// replicated; any other runs in batches of up to width lanes, narrowed by
// the plane budget.
//
//pls:hotpath
func (k *kernel) trials(p *prepared, width int, c *graph.Config, labels []core.Label, seed uint64, lo, hi int, out []trialOutcome) {
	if p.det {
		// Every trial of a deterministic scheme is the same execution.
		obsBatchCoinFree.Inc()
		k.run(p, c, labels, seed+uint64(lo), 1, false)
		o := trialOutcome{accepted: k.accept != 0, st: k.stats[0]}
		for t := lo; t < hi; t++ {
			out[t-lo] = o
		}
		return
	}
	timer := obsTrialSequential
	if width > 1 {
		timer = obsBatchNanos
		if w := laneWidth(2 * c.G.M()); w < width {
			// The plane budget, not the trial count, capped the lane width.
			obsBatchNarrowed.Inc()
			width = w
		}
	}
	for t := lo; t < hi; t += width {
		w := min(width, hi-t)
		t0 := timer.Start()
		k.run(p, c, labels, seed+uint64(t), w, false)
		timer.Stop(t0)
		if width > 1 {
			obsBatches.Inc()
			obsBatchLanes.Observe(int64(w))
		}
		for l := 0; l < w; l++ {
			out[t-lo+l] = trialOutcome{accepted: k.accept&(1<<uint(l)) != 0, st: k.stats[l]}
		}
	}
}

// ensure sizes the plane, the receive windows, and the vote vector for a
// batch of the given width over the current CSR snapshot, and points the
// lane streams at their storage.
//
//pls:hotpath
func (k *kernel) ensure(width int) {
	n, slots := k.csr.N(), k.csr.Slots()
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, k.csr.Degree(v))
	}
	k.plane = grow(k.plane, width*slots)
	k.recv = grow(k.recv, width*maxDeg)
	k.votes = grow(k.votes, n)
	for l := 0; l < width; l++ {
		k.rngs[l] = &k.rngVals[l]
	}
}

// planeBlock returns node v's block of a width-lane plane: its width × deg
// certificates are contiguous from RowStart[v]·width, lane-major inside,
// so lane l's string on port i sits at l·deg + i. A node's Certs writes
// one block, and the decide gather reads one block per neighbor.
//
//pls:hotpath
func (k *kernel) planeBlock(v, width int) []core.Cert {
	return k.plane[k.csr.RowStart[v]*width : k.csr.RowStart[v+1]*width]
}

// run is the lane loop: width trials, lane l at seed firstSeed+l, through
// one CSR rebuild, one certificate traversal that meters each node's block
// as it is written, and one decide traversal. Every string is metered at
// its sender as the p.rounds shards of core.Shard's layout; the receiver
// decides on the whole string, which is bit for bit the round-order
// concatenation of those shards. When needVotes is set, lane 0's per-node
// votes land in k.votes and every node decides. Otherwise only acceptance
// is wanted, and the decide traversal stops once every lane has rejected:
// a trial accepts only if every node does, so the nodes left cannot change
// it, and Stats come from the certificate traversal, which always runs in
// full. The scratch's run region is reset once, here, and its call region
// before each node call.
//
//pls:hotpath
func (k *kernel) run(p *prepared, c *graph.Config, labels []core.Label, firstSeed uint64, width int, needVotes bool) {
	k.csr.Reset(c.G)
	k.ensure(width)
	k.sc.ResetRun()
	n, slots := k.csr.N(), k.csr.Slots()
	rngs, rows, windows := k.rngs[:width], k.rows[:width], k.windows[:width]
	for l := range rngs {
		k.rootVals[l] = *prng.New(firstSeed + uint64(l))
	}

	// The structural distinct-message count is lane-invariant: it depends
	// on degrees and the cap, not on coins.
	distinct := int64(0)
	for v := 0; v < n; v++ {
		distinct += distinctCount(p.det, p.mult, k.csr.Degree(v))
	}
	st0 := Stats{Rounds: p.rounds, MaxLabelBits: core.MaxBits(labels),
		Messages: p.rounds * slots, DistinctMessages: int64(p.rounds) * distinct}
	stats := k.stats[:width]
	for l := range stats {
		stats[l] = st0
	}

	for v := 0; v < n; v++ {
		deg, block := k.csr.Degree(v), k.planeBlock(v, width)
		for l := range rngs {
			k.rngVals[l] = *k.rootVals[l].Fork(uint64(v))
			rows[l] = block[l*deg : (l+1)*deg]
		}
		k.sc.ResetCall()
		p.nodes[v].Certs(rngs, rows, &k.sc)
		for l, row := range rows {
			for _, cert := range row {
				stats[l].meterShards(cert.Len(), p.rounds)
			}
		}
	}

	accept, decided := core.LaneMask(width), n
	for v := 0; v < n; v++ {
		base, deg := k.csr.RowStart[v], k.csr.Degree(v)
		recv := k.recv[:width*deg]
		for i := 0; i < deg; i++ {
			// The string arriving on port i left the neighbor u on the
			// slot RevEdge[base+i], port j of u's block.
			u := k.csr.EdgeTo[base+i]
			j, ud := k.csr.RevEdge[base+i]-k.csr.RowStart[u], k.csr.Degree(u)
			src := k.planeBlock(u, width)
			for l := 0; l < width; l++ {
				recv[l*deg+i] = src[l*ud+j]
			}
		}
		for l := range windows {
			windows[l] = recv[l*deg : (l+1)*deg]
		}
		k.sc.ResetCall()
		mask := p.nodes[v].Decide(windows, &k.sc)
		accept &= mask
		if needVotes {
			k.votes[v] = mask&1 != 0
		} else if accept == 0 {
			decided = v + 1
			break
		}
	}
	obsDecideNodes.Add(uint64(decided))
	obsDecideSkipped.Add(uint64(n - decided))
	if n == 0 {
		accept = 0 // an empty configuration accepts nowhere (AllTrue is false)
	}
	k.accept = accept
}

// Sequential is the lane loop one lane wide: every trial is its own
// traversal. It backs Monte-Carlo estimation, monitors, and benchmarks.
type Sequential struct{ kernel }

// NewSequential returns a sequential executor with empty scratch.
func NewSequential() *Sequential { return &Sequential{} }

// Name implements Executor.
func (e *Sequential) Name() string { return "sequential" }

// Clone implements Executor: a fresh sequential executor with empty scratch.
func (e *Sequential) Clone() Executor { return NewSequential() }

func (e *Sequential) lanes() (*kernel, int) { return &e.kernel, 1 }
