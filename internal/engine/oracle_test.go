package engine_test

import (
	"sync"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// goroutineOracle is the model-faithful reference execution of §2.1, kept
// test-only: each node runs as its own goroutine and messages travel over
// one buffered channel per directed edge, so a verifier physically cannot
// read anything but its own state, its own label, and what arrived on its
// ports. It shares nothing with the engine's round kernel beyond the Scheme
// interface — its own channel fabric, receive buffers, and metering (it
// deliberately does not call the engine's meterShards or distinct-message
// count) — so the parity, wiring, and golden-bits tests that compare the
// kernel and Batched against it compare two independent implementations.
type goroutineOracle struct{}

func newOracle() engine.Executor { return goroutineOracle{} }

func (goroutineOracle) Name() string           { return "goroutine-oracle" }
func (goroutineOracle) Clone() engine.Executor { return goroutineOracle{} }

// nodeMeter is what one node put on the wire over all rounds.
type nodeMeter struct {
	maxMsg int   // longest message sent on any port in any round
	wire   int64 // bits sent, all ports and rounds
}

// Round runs the scheme's t >= 1 rounds (the classic round is t = 1) with
// every node as a goroutine alternating a send-all and a receive-all phase
// per round over the same one-channel-per-directed-edge fabric. Each node
// derives its strings once — its label for a deterministic scheme, else
// its (capped) certificates — and in round r sends core.Shard(str, r, t)
// on every port, metering each shard it sends. The capacity-1 buffers
// cannot deadlock: the node at the minimum round has already had all its
// inputs sent and all its output channels drained (any neighbor past that
// round consumed them), so it always progresses. After the last round each
// node decides from the per-port concatenation, in round order, of
// everything that arrived on that port.
func (goroutineOracle) Round(s engine.Scheme, c *graph.Config, labels []core.Label, seed uint64) ([]bool, engine.Stats) {
	n := c.G.N()
	rounds := engine.Rounds(s)
	in := buildChannels(c.G)
	root := prng.New(seed)
	votes := make([]bool, n)
	sent := make([]nodeMeter, n)

	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			view := core.ViewOf(c, v)
			strs := nodeStrings(s, view, labels[v], root.Fork(uint64(v)))
			acc := make([][]core.Cert, view.Deg)
			for r := 0; r < rounds; r++ {
				for i, h := range c.G.AdjView(v) {
					msg := core.Shard(strs[i], r, rounds)
					sent[v].maxMsg = max(sent[v].maxMsg, msg.Len())
					sent[v].wire += int64(msg.Len())
					in[h.To][h.RevPort-1] <- msg
				}
				for i := range acc {
					acc[i] = append(acc[i], <-in[v][i])
				}
			}
			recv := make([]core.Cert, view.Deg)
			for i := range recv {
				recv[i] = bitstring.Concat(acc[i]...)
			}
			votes[v] = s.Decide(view, labels[v], recv)
		}(v)
	}
	wg.Wait()

	st := engine.Stats{Rounds: rounds}
	det, mult := s.Deterministic(), engine.Multiplicity(s)
	for v := 0; v < n; v++ {
		deg := c.G.Degree(v)
		st.MaxLabelBits = max(st.MaxLabelBits, labels[v].Len())
		st.Messages += rounds * deg
		// Distinct payloads per round: one label broadcast, at most m
		// classes under a cap, otherwise one per port.
		distinct := deg
		if det && deg > 0 {
			distinct = 1
		} else if mult > 0 && mult < deg {
			distinct = mult
		}
		st.DistinctMessages += int64(rounds * distinct)
		st.TotalWireBits += sent[v].wire
		// maxMsg is the largest message v sent — the label for a
		// deterministic scheme — so it feeds κ and the port maximum alike.
		st.MaxCertBits = max(st.MaxCertBits, sent[v].maxMsg)
		st.MaxPortBits = max(st.MaxPortBits, sent[v].maxMsg)
	}
	return votes, st
}

// nodeStrings is what a node sends on each port over the whole execution,
// derived once: its label on every port for a deterministic scheme,
// otherwise its certificates from rng (an empty string for a port the
// scheme left out). Round r carries core.Shard(str, r, t) of each.
func nodeStrings(s engine.Scheme, view core.View, own core.Label, rng *prng.Rand) []core.Cert {
	strs := make([]core.Cert, view.Deg)
	if s.Deterministic() {
		for i := range strs {
			strs[i] = own
		}
		return strs
	}
	copy(strs, s.Certs(view, own, rng))
	return strs
}

// buildChannels wires one buffered channel per directed edge;
// in[v][p-1] carries messages arriving at v on port p.
func buildChannels(g *graph.Graph) [][]chan bitstring.String {
	in := make([][]chan bitstring.String, g.N())
	for v := range in {
		in[v] = make([]chan bitstring.String, g.Degree(v))
		for i := range in[v] {
			in[v][i] = make(chan bitstring.String, 1)
		}
	}
	return in
}
