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
	// estimator and Sweep clone the caller's executor once per extra worker.
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
// order (aliases excluded).
func ExecutorNames() []string {
	names := make([]string, len(executorTable))
	for i, e := range executorTable {
		names[i] = e.name
	}
	return names
}

// NewExecutor returns a fresh executor by name; "seq" is an alias of
// "sequential". Any other name — including the retired "pool" and
// "goroutines" — is rejected with an *OptionError naming WithExecutor
// rather than re-mapped, because campaign cell IDs encode the executor.
func NewExecutor(name string) (Executor, error) {
	if name == "seq" {
		name = "sequential"
	}
	for _, e := range executorTable {
		if e.name == name {
			return e.mk(), nil
		}
	}
	return nil, optionErr("WithExecutor", "unknown executor %q (%s)", name, strings.Join(ExecutorNames(), ", "))
}

// scratch holds the buffers an executor reuses across rounds: one receive
// window per node carved out of a single flat slice, the per-node cert
// slices, and the vote vector. Reusing them keeps steady-state rounds free
// of per-round allocations on the executor side.
type scratch struct {
	offs  []int // offs[v] is the start of v's receive window; offs[n] = 2m
	recv  []core.Cert
	certs [][]core.Cert
	votes []bool
}

// ensure resizes the scratch for the graph. Offsets are recomputed every
// round because configurations are mutated in place by corruption helpers.
// The makes below are capacity-guarded grows: they fire only when the graph
// outgrows the scratch, so steady-state rounds never reach them.
//
//pls:hotpath
func (sc *scratch) ensure(g *graph.Graph) {
	n := g.N()
	if cap(sc.offs) < n+1 {
		sc.offs = make([]int, n+1) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	sc.offs = sc.offs[:n+1]
	total := 0
	for v := 0; v < n; v++ {
		sc.offs[v] = total
		total += g.Degree(v)
	}
	sc.offs[n] = total
	if cap(sc.recv) < total {
		sc.recv = make([]core.Cert, total) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	sc.recv = sc.recv[:total]
	if cap(sc.certs) < n {
		sc.certs = make([][]core.Cert, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	sc.certs = sc.certs[:n]
	if cap(sc.votes) < n {
		sc.votes = make([]bool, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across rounds
	}
	sc.votes = sc.votes[:n]
}

// window returns node v's receive buffer, sized to its degree.
//
//pls:hotpath
func (sc *scratch) window(v int) []core.Cert {
	return sc.recv[sc.offs[v]:sc.offs[v+1]]
}

// gather fills node v's receive window from the generated certificates (or,
// for deterministic schemes, from the neighbors' labels) and returns it.
//
//pls:hotpath
func (sc *scratch) gather(det bool, c *graph.Config, labels []core.Label, v int) []core.Cert {
	recv := sc.window(v)
	for i := range recv {
		h := c.G.Neighbor(v, i+1)
		if det {
			recv[i] = labels[h.To]
			continue
		}
		certs := sc.certs[h.To]
		if h.RevPort-1 < len(certs) {
			recv[i] = certs[h.RevPort-1]
		} else {
			recv[i] = core.Cert{}
		}
	}
	return recv
}

// meter accounts k copies of one b-bit message leaving a node: the wire
// total grows by k·b and, when anything is sent, b competes for κ
// (MaxCertBits) and the port maximum. It is the single definition of both
// quantities, shared by sendStats and the batched lanes.
//
//pls:hotpath
func (st *Stats) meter(b, k int) {
	if k == 0 {
		return
	}
	st.TotalWireBits += int64(k * b)
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
// materialized shard through meter(len, 1) gives, since no shard is wider
// than the first; t = 1 is meter(b, 1).
//
//pls:hotpath
func (st *Stats) meterShards(b, t int) {
	w := b
	if t > 1 {
		w = core.ShardWidth(b, t)
	}
	st.meter(w, 1)
	st.TotalWireBits += int64(b - w)
}

// sendStats accumulates the cost of everything node v puts on the wire in
// one trial of t rounds. It only bumps scalar counters on the caller's
// Stats. mult is the scheme's multiplicity cap (0 = unconstrained); the
// structural distinct-message count is derived from it, never from
// payload bytes. Every string is sent as t shards, so each port carries t
// messages and the distinct count is per round.
//
//pls:hotpath
func sendStats(det bool, mult, rounds int, c *graph.Config, labels []core.Label, certs []core.Cert, v int, st *Stats) {
	deg := c.G.Degree(v)
	st.Messages += rounds * deg
	st.DistinctMessages += int64(rounds) * distinctCount(det, mult, deg)
	if det {
		// The message on every port is the node's label: κ (Definition 2.1)
		// is the largest label actually transmitted, not zero.
		st.meter(labels[v].Len(), deg)
		return
	}
	if len(certs) > deg {
		certs = certs[:deg]
	}
	for _, cert := range certs {
		st.meterShards(cert.Len(), rounds)
	}
}

// Sequential is the engine's round kernel: one goroutine, buffers reused
// across rounds. It runs every scheme shape — deterministic or randomized,
// capped or not, one round or t — and backs Monte-Carlo estimation,
// monitors, benchmarks, and every path Batched does not widen into lanes.
type Sequential struct{ sc scratch }

// NewSequential returns a sequential executor with empty scratch.
func NewSequential() *Sequential { return &Sequential{} }

// Name implements Executor.
func (e *Sequential) Name() string { return "sequential" }

// Clone implements Executor: a fresh sequential executor with empty scratch.
func (e *Sequential) Clone() Executor { return NewSequential() }

// Round implements Executor for every t >= 1, the classic round of §2.1
// being t = 1. Every node derives its strings once — its label on every
// port for a deterministic scheme, otherwise certificates from the coin
// stream prng.New(seed).Fork(v) — and sendStats meters them at the
// sender, each string as the t shards of core.Shard's layout. Each
// receiver's window is then gathered straight from the senders' port
// slots — for t > 1 the whole string is bit for bit the round-order
// concatenation of its shards — and the node decides. Node v's view is
// always core.ViewOf(c, v), passed beside labels[v]: the estimator's
// prepared schemes index their per-node state by view.Node (see
// preparedScheme). The deterministic round is the zero-alloc hot path:
// the plsvet hotalloc analyzer rejects allocating constructs in every
// //pls:hotpath function at the AST level, TestSequentialRoundAllocs
// asserts the warm round allocates nothing, and the benchgate allocation
// band locks the measured steady state in CI.
//
//pls:hotpath
func (e *Sequential) Round(s Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, Stats) {
	n := c.G.N()
	e.sc.ensure(c.G)
	t := Rounds(s)
	st := Stats{Rounds: t, MaxLabelBits: core.MaxBits(labels)}
	det, mult := s.Deterministic(), Multiplicity(s)
	var root *prng.Rand
	if !det {
		root = prng.New(seed)
	}
	for v := 0; v < n; v++ {
		if !det {
			e.sc.certs[v] = s.Certs(core.ViewOf(c, v), labels[v], root.Fork(uint64(v)))
		}
		sendStats(det, mult, t, c, labels, e.sc.certs[v], v, &st)
	}
	for v := 0; v < n; v++ {
		recv := e.sc.gather(det, c, labels, v)
		e.sc.votes[v] = s.Decide(core.ViewOf(c, v), labels[v], recv)
	}
	return e.sc.votes, st
}
