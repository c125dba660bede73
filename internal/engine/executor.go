package engine

import (
	"slices"
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
// and label assignment: one core.Prepared node per graph node, what the
// wrappers around the base scheme change in the loop, and what every run
// of those nodes shares. Sharding changes only the metering, so the nodes
// are those of the base scheme; a cap wraps each of them in a capNode.
// Once built, a prepared scheme is read-only; the estimator's workers
// share it.
type prepared struct {
	source
	nodes    []core.Prepared
	adapters []core.LabelNode // storage of the label-path nodes, reused across rounds
	wrappers []capNode        // storage of the cap's node wrappers, reused across rounds

	// What every run shares (see meter): the Stats a run starts from,
	// which hold the coin-free widths of every sized node; which nodes are
	// sized, so that an estimate's run writes their blocks only for a
	// reader; how many nodes have a port, and so a block to write; and
	// whether some node rejects coin-free.
	base    Stats
	sized   []bool
	blocks  int
	rejects bool
	widths  []int // CoinFree's buffer
}

// source is how the lane loop prepares one node of a scheme.
type source struct {
	path   Scheme        // the base scheme, without its cap and sharding
	pr     core.Preparer // the base scheme's own nodes, when FromRPLS adapts a core.Preparer
	cs     capScheme     // the cap, when capped
	capped bool
	det    bool // a deterministic round: coin-free, one distinct message per node
	rounds int  // each string is metered as the shards of this many rounds
	mult   int  // the multiplicity cap; 0 is unconstrained
}

// sourceOf unwraps s down to its base scheme.
//
//pls:hotpath
func sourceOf(s Scheme) source {
	src := source{det: s.Deterministic(), rounds: Rounds(s), mult: Multiplicity(s)}
	src.cs, src.capped = s.(capScheme)
	if src.capped {
		s = src.cs.inner
	}
	if w, ok := s.(sharded); ok {
		s = w.Scheme
	}
	src.path = s
	if r, ok := AsRPLS(s); ok {
		src.pr, _ = r.(core.Preparer)
	}
	return src
}

// node prepares the node of a view and label: the base scheme's own when it
// has a core.Preparer, otherwise a core.LabelNode over its label path,
// built in adapter; under a cap it is wrapped in the cap's capNode, built
// in wrapper.
//
//pls:hotpath
func (src *source) node(view core.View, own core.Label, adapter *core.LabelNode, wrapper *capNode) core.Prepared {
	var node core.Prepared
	if src.pr != nil {
		node = src.pr.Prepare(view, own)
	} else {
		*adapter = core.LabelNode{Path: src.path, View: view, Own: own, Broadcast: src.det}
		node = adapter
	}
	if src.capped {
		*wrapper = src.cs.node(node, view.Deg)
		node = wrapper
	}
	return node
}

// reset prepares s for the configuration and labels, reusing the
// receiver's storage: a scheme with a core.Preparer behind its FromRPLS
// adapter prepares its own nodes; every other scheme — deterministic, or
// adapted from neither core type — is answered by core.LabelNodes, which
// allocate nothing here. Under a cap, each node is wrapped in the cap's
// capNode. It then meters what every run of the nodes shares.
//
//pls:hotpath
func (p *prepared) reset(s Scheme, c *graph.Config, labels []core.Label) {
	p.source = sourceOf(s)
	n := c.G.N()
	p.nodes = grow(p.nodes, n)
	if p.pr == nil {
		p.adapters = grow(p.adapters, n)
	}
	if p.capped {
		p.wrappers = grow(p.wrappers, n)
	}
	for v := range p.nodes {
		var adapter *core.LabelNode
		var wrapper *capNode
		if p.pr == nil {
			adapter = &p.adapters[v]
		}
		if p.capped {
			wrapper = &p.wrappers[v]
		}
		p.nodes[v] = p.node(core.ViewOf(c, v), labels[v], adapter, wrapper)
	}
	p.meter(c, labels)
}

// withNode returns p with node v prepared again for labels, which must
// differ from p's labels at node v alone. The copy shares p's other
// nodes, read-only, and builds node v's adapter and cap wrapper in
// storage of its own, so p stays as it was. A nil p (no trial runs) and
// v < 0 (no node changed) return p.
func (p *prepared) withNode(c *graph.Config, labels []core.Label, v int) *prepared {
	if p == nil || v < 0 {
		return p
	}
	q := &prepared{source: p.source, nodes: slices.Clone(p.nodes)}
	q.nodes[v] = q.node(core.ViewOf(c, v), labels[v], new(core.LabelNode), new(capNode))
	q.meter(c, labels)
	return q
}

// meter records what every run of the nodes shares: the structural Stats
// (rounds, messages, the distinct-message count, the longest label), the
// coin-free widths of every node that reports them, metered once as the
// shards of p.rounds rounds, and whether some node rejects coin-free.
//
//pls:hotpath
func (p *prepared) meter(c *graph.Config, labels []core.Label) {
	p.sized = grow(p.sized, len(p.nodes))
	p.widths = grow(p.widths, c.G.MaxDegree())
	p.base = Stats{Rounds: p.rounds, MaxLabelBits: core.MaxBits(labels)}
	p.blocks, p.rejects = 0, false
	distinct := int64(0)
	for v, node := range p.nodes {
		deg := c.G.Degree(v)
		widths := p.widths[:deg]
		sized, rejects := node.CoinFree(widths)
		p.sized[v], p.rejects = sized, p.rejects || rejects
		if sized {
			for _, w := range widths {
				p.base.meterShards(w, p.rounds)
			}
		}
		if deg > 0 {
			p.blocks++
		}
		p.base.Messages += p.rounds * deg
		distinct += distinctCount(p.det, p.mult, deg)
	}
	p.base.DistinctMessages = int64(p.rounds) * distinct
}

// kernel is the one lane loop both executors run, with its reused
// scratch. It snapshots the configuration's adjacency into a CSR layout
// and runs up to 64 Monte-Carlo trials ("lanes") through one traversal:
// every node's prepared node writes its lanes' strings straight into its
// own block of a node-major plane, and every node decides all lanes from
// windows gathered through one RevEdge lookup per port, AND-reducing
// per-node vote masks into per-trial acceptance. A block whose widths the
// coins set is written and metered lane by lane before any node decides;
// every other block was metered once, when the nodes were prepared, and is
// written the first time a deciding neighbor reads it. An estimate's run
// stops deciding once every lane has rejected and decides nothing when a
// node rejects coin-free, so it may leave such blocks unwritten; Round
// decides every node, so it writes every block. Lane l of a batch
// starting at trial t runs node streams prng.New(seed+t+l).Fork(v),
// whenever its block is written, so votes and Stats do not depend on the
// lane width. Sequential runs the loop one lane wide, Batched up to 64.
//
// The loop allocates nothing once warm: the plane, the windows and the
// scratch every node call borrows (sc) are kept across runs, and grow
// only when a graph or a call outgrows them.
type kernel struct {
	csr      graph.CSR
	plane    []core.Cert // node-major send plane: see planeBlock
	recv     []core.Cert // one node's receive windows, lane l at [l*deg:(l+1)*deg]
	written  []bool      // written[v]: node v's block holds this run's strings
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
	k.run(&k.round, c, seed, 1, true)
	return k.votes, k.stats[0]
}

// trials executes trials [lo, hi) at seeds seed+lo … seed+hi−1 and writes
// outcome t to out[t-lo]. A deterministic scheme runs once and is
// replicated; any other runs in batches of up to width lanes, narrowed by
// the plane budget.
//
//pls:hotpath
func (k *kernel) trials(p *prepared, width int, c *graph.Config, seed uint64, lo, hi int, out []trialOutcome) {
	if p.det {
		// Every trial of a deterministic scheme is the same execution.
		obsBatchCoinFree.Inc()
		k.run(p, c, seed+uint64(lo), 1, false)
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
		k.run(p, c, seed+uint64(t), w, false)
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

// ensure sizes the plane, the receive windows, the written flags and the
// vote vector for a batch of the given width over the current CSR
// snapshot, and points the lane streams at their storage.
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
	k.written = grow(k.written, n)
	k.votes = grow(k.votes, n)
	for l := 0; l < width; l++ {
		k.rngs[l] = &k.rngVals[l]
	}
}

// planeBlock returns node v's block of a width-lane plane: its width × deg
// certificates are contiguous from RowStart[v]·width, lane-major inside,
// so lane l's string on port i sits at l·deg + i. A node's Certs writes
// one block (see write), and the decide gather reads one block per
// neighbor.
//
//pls:hotpath
func (k *kernel) planeBlock(v, width int) []core.Cert {
	return k.plane[k.csr.RowStart[v]*width : k.csr.RowStart[v+1]*width]
}

// write computes node v's block: one Certs call over every lane, lane l
// on the stream prng.New(firstSeed+l).Fork(v) of the run.
//
//pls:hotpath
func (k *kernel) write(p *prepared, v, width int) {
	deg, block := k.csr.Degree(v), k.planeBlock(v, width)
	rows := k.rows[:width]
	for l := range rows {
		k.rngVals[l] = *k.rootVals[l].Fork(uint64(v))
		rows[l] = block[l*deg : (l+1)*deg]
	}
	k.sc.ResetCall()
	p.nodes[v].Certs(k.rngs[:width], rows, &k.sc)
	k.written[v] = true
}

// run is the lane loop: width trials, lane l at seed firstSeed+l, through
// one CSR rebuild, one certificate traversal and one decide traversal.
// Every string is metered at its sender as the p.rounds shards of
// core.Shard's layout; the receiver decides on the whole string, which is
// bit for bit the round-order concatenation of those shards. Each run's
// Stats start from p.base, which holds every sized node's widths, and the
// certificate traversal writes and meters, lane by lane, the blocks of the
// nodes that are not sized. A sized node's block is written, from the
// same streams, when the decide gather first reads it, so the blocks no
// decided node reads are never written. When needVotes is set, lane 0's
// per-node votes land in k.votes and every node decides, so every block
// is read. Otherwise only acceptance is wanted: a trial accepts only if
// every node does, so the decide traversal stops once every lane has
// rejected, and does not start when a node rejects coin-free. The
// scratch's run region is reset once, here, and its call region before
// each node call.
//
//pls:hotpath
func (k *kernel) run(p *prepared, c *graph.Config, firstSeed uint64, width int, needVotes bool) {
	k.csr.Reset(c.G)
	k.ensure(width)
	k.sc.ResetRun()
	n := k.csr.N()
	for l := 0; l < width; l++ {
		k.rootVals[l] = *prng.New(firstSeed + uint64(l))
	}
	stats := k.stats[:width]
	for l := range stats {
		stats[l] = p.base
	}

	computed := 0
	for v := 0; v < n; v++ {
		k.written[v] = false
		deg := k.csr.Degree(v)
		if deg == 0 || p.sized[v] {
			continue
		}
		k.write(p, v, width)
		computed++
		block := k.planeBlock(v, width)
		for l := range stats {
			for _, cert := range block[l*deg : (l+1)*deg] {
				stats[l].meterShards(cert.Len(), p.rounds)
			}
		}
	}

	accept, decided := core.LaneMask(width), 0
	if p.rejects && !needVotes {
		accept = 0 // a node rejects every lane, whatever it receives
	}
	windows := k.windows[:width]
	for v := 0; v < n && (needVotes || accept != 0); v++ {
		base, deg := k.csr.RowStart[v], k.csr.Degree(v)
		recv := k.recv[:width*deg]
		for i := 0; i < deg; i++ {
			// The string arriving on port i left the neighbor u on the
			// slot RevEdge[base+i], port j of u's block.
			u := k.csr.EdgeTo[base+i]
			if !k.written[u] {
				k.write(p, u, width)
				computed++
			}
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
		decided++
		if needVotes {
			k.votes[v] = mask&1 != 0
		}
	}
	obsDecideNodes.Add(uint64(decided))
	obsDecideSkipped.Add(uint64(n - decided))
	obsCertsComputed.Add(uint64(computed))
	obsCertsSkipped.Add(uint64(p.blocks - computed))
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
