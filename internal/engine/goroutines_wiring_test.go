package engine_test

import (
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/uniform"
)

// Port-exactness tests, run on the goroutine-per-node oracle and on every
// engine executor (the round kernel's gather and Batched's CSR RevEdge
// gather): a scheme that plants its expected neighbor IDs by port catches
// any wiring slip.

// echoPLS checks that the runtime delivers exactly the right label on
// exactly the right port: the label of v is its 64-bit ID, and the expected
// neighbor IDs are planted in State.Weights indexed by port.
type echoPLS struct{}

func (echoPLS) Name() string { return "echo" }

func (echoPLS) Label(c *graph.Config) ([]core.Label, error) {
	out := make([]core.Label, c.G.N())
	for v := range out {
		var w bitstring.Writer
		w.WriteUint(c.States[v].ID, 64)
		out[v] = w.String()
	}
	return out, nil
}

func (echoPLS) Verify(view core.View, own core.Label, nbrs []core.Label) bool {
	r := bitstring.NewReader(own)
	id, err := r.ReadUint(64)
	if err != nil || id != view.State.ID {
		return false
	}
	if len(nbrs) != view.Deg {
		return false
	}
	for i, nl := range nbrs {
		nr := bitstring.NewReader(nl)
		nid, err := nr.ReadUint(64)
		if err != nil {
			return false
		}
		if int64(nid) != view.State.Weights[i] {
			return false
		}
	}
	return true
}

// echoRPLS does the same over the certificate path.
type echoRPLS struct{}

func (echoRPLS) Name() string   { return "echo-rand" }
func (echoRPLS) OneSided() bool { return true }

func (echoRPLS) Label(c *graph.Config) ([]core.Label, error) {
	return make([]core.Label, c.G.N()), nil
}

func (echoRPLS) Certs(view core.View, _ core.Label, _ *prng.Rand) []core.Cert {
	certs := make([]core.Cert, view.Deg)
	for i := range certs {
		var w bitstring.Writer
		w.WriteUint(view.State.ID, 64)
		certs[i] = w.String()
	}
	return certs
}

func (echoRPLS) Decide(view core.View, _ core.Label, received []core.Cert) bool {
	if len(received) != view.Deg {
		return false
	}
	for i, cert := range received {
		r := bitstring.NewReader(cert)
		nid, err := r.ReadUint(64)
		if err != nil {
			return false
		}
		if int64(nid) != view.State.Weights[i] {
			return false
		}
	}
	return true
}

// wiredConfig plants each node's neighbor IDs into its Weights by port, so
// the echo schemes can verify exact port-level delivery.
func wiredConfig(g *graph.Graph, rng *prng.Rand) *graph.Config {
	c := graph.NewConfig(g)
	c.AssignRandomIDs(rng)
	for v := 0; v < g.N(); v++ {
		ws := make([]int64, g.Degree(v))
		for i, h := range g.Adj(v) {
			ws[i] = int64(c.States[h.To].ID)
		}
		c.States[v].Weights = ws
	}
	return c
}

// onEveryExecutor runs check as one subtest per executor — the oracle, the
// round kernel, and Batched — with options selecting that executor and
// requesting the per-node votes.
func onEveryExecutor(t *testing.T, check func(t *testing.T, opts func(extra ...engine.Option) []engine.Option)) {
	for _, ex := range executors() {
		t.Run(ex.Name(), func(t *testing.T) {
			check(t, func(extra ...engine.Option) []engine.Option {
				return append([]engine.Option{engine.WithExecutor(ex), engine.WithStats(true)}, extra...)
			})
		})
	}
}

func TestGoroutinesDeliverLabelsOnCorrectPorts(t *testing.T) {
	onEveryExecutor(t, func(t *testing.T, opts func(...engine.Option) []engine.Option) {
		rng := prng.New(1)
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(30)
			g := graph.RandomConnected(n, rng.Intn(2*n), rng)
			c := wiredConfig(g, rng)
			res, err := engine.Run(engine.FromPLS(echoPLS{}), c, opts()...)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("trial %d (n=%d): port wiring broken, votes = %v", trial, n, res.Votes)
			}
		}
	})
}

func TestGoroutinesDeliverCertsOnCorrectPorts(t *testing.T) {
	onEveryExecutor(t, func(t *testing.T, opts func(...engine.Option) []engine.Option) {
		rng := prng.New(2)
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(30)
			g := graph.RandomConnected(n, rng.Intn(2*n), rng)
			c := wiredConfig(g, rng)
			res, err := engine.Run(engine.FromRPLS(echoRPLS{}), c,
				opts(engine.WithSeed(uint64(trial)))...)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("trial %d (n=%d): certificate wiring broken", trial, n)
			}
		}
	})
}

func TestGoroutinesStatsCountMessagesAndBits(t *testing.T) {
	onEveryExecutor(t, func(t *testing.T, opts func(...engine.Option) []engine.Option) {
		g := graph.Path(4) // 3 edges
		c := wiredConfig(g, prng.New(3))
		res, err := engine.Run(engine.FromPLS(echoPLS{}), c, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Messages != 6 { // 2m directed messages
			t.Errorf("Messages = %d, want 6", res.Stats.Messages)
		}
		if res.Stats.MaxLabelBits != 64 {
			t.Errorf("MaxLabelBits = %d, want 64", res.Stats.MaxLabelBits)
		}
		if res.Stats.TotalWireBits != 6*64 {
			t.Errorf("TotalWireBits = %d, want %d", res.Stats.TotalWireBits, 6*64)
		}

		rres, err := engine.Run(engine.FromRPLS(echoRPLS{}), c, opts(engine.WithSeed(0))...)
		if err != nil {
			t.Fatal(err)
		}
		if rres.Stats.MaxCertBits != 64 {
			t.Errorf("MaxCertBits = %d, want 64", rres.Stats.MaxCertBits)
		}
		if rres.Stats.Messages != 6 {
			t.Errorf("Messages = %d, want 6", rres.Stats.Messages)
		}
	})
}

func TestGoroutinesMatchSequentialEstimate(t *testing.T) {
	// Acceptance (the estimator on its default kernel) and a single round
	// on each executor must agree for identical seeds.
	onEveryExecutor(t, func(t *testing.T, opts func(...engine.Option) []engine.Option) {
		rng := prng.New(5)
		g := graph.RandomConnected(12, 6, rng)
		c := graph.NewConfig(g)
		for v := range c.States {
			c.States[v].Data = []byte("u")
		}
		c.States[7].Data = []byte("v") // illegal: outcomes now depend on coins
		s := engine.FromRPLS(uniform.NewRPLS())
		labels := make([]core.Label, 12)
		for seed := uint64(0); seed < 50; seed++ {
			round := engine.Verify(s, c, labels, opts(engine.WithSeed(seed))...).Accepted
			estimated := engine.Acceptance(s, c, labels, 1, seed) == 1.0
			if round != estimated {
				t.Fatalf("seed %d: round=%v estimate=%v", seed, round, estimated)
			}
		}
	})
}

func TestAcceptanceZeroTrials(t *testing.T) {
	c := graph.NewConfig(graph.Path(2))
	s := engine.FromRPLS(uniform.NewRPLS())
	if got := engine.Acceptance(s, c, make([]core.Label, 2), 0, 0); got != 0 {
		t.Errorf("zero trials should return 0, got %v", got)
	}
}

func TestVotesPinpointRejectingNode(t *testing.T) {
	c := graph.NewConfig(graph.Path(5))
	for v := range c.States {
		c.States[v].Data = []byte("same")
	}
	c.States[2].Data = []byte("diff")
	labels := []core.Label{
		bitstring.FromBytes([]byte("same")),
		bitstring.FromBytes([]byte("same")),
		bitstring.FromBytes([]byte("same")), // claims "same" but state says "diff"
		bitstring.FromBytes([]byte("same")),
		bitstring.FromBytes([]byte("same")),
	}
	onEveryExecutor(t, func(t *testing.T, opts func(...engine.Option) []engine.Option) {
		res := engine.Verify(engine.FromPLS(uniform.NewPLS()), c, labels, opts()...)
		if res.Accepted {
			t.Fatal("inconsistent label accepted")
		}
		if res.Votes[2] {
			t.Error("node 2 should reject: its label does not match its state")
		}
		for _, v := range []int{0, 1, 3, 4} {
			if !res.Votes[v] {
				t.Errorf("node %d should accept (its local view is consistent)", v)
			}
		}
	})
}

func TestSingleNodeGraphAccepts(t *testing.T) {
	// A single node has no neighbors; verification is purely local.
	c := graph.NewConfig(graph.New(1))
	c.States[0].Data = []byte("x")
	onEveryExecutor(t, func(t *testing.T, opts func(...engine.Option) []engine.Option) {
		for _, s := range []engine.Scheme{engine.FromPLS(uniform.NewPLS()), engine.FromRPLS(uniform.NewRPLS())} {
			res, err := engine.Run(s, c, opts()...)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Errorf("%s: single-node legal config rejected", s.Name())
			}
		}
	})
}

func TestMaxCertBitsBoundsRoundTransmission(t *testing.T) {
	c := graph.NewConfig(graph.Path(3))
	for v := range c.States {
		c.States[v].Data = []byte{0xAB, 0xCD}
	}
	s := engine.FromRPLS(uniform.NewRPLS())
	labels := make([]core.Label, 3)
	bits := engine.MaxCertBits(s, c, labels, 5, 7)
	if bits <= 0 {
		t.Fatal("no certificate bits measured")
	}
	// Must match what a verification round actually transmits.
	onEveryExecutor(t, func(t *testing.T, opts func(...engine.Option) []engine.Option) {
		res := engine.Verify(s, c, labels, opts(engine.WithSeed(7))...)
		if res.Stats.MaxCertBits > bits {
			t.Errorf("round transmitted %d bits but MaxCertBits reported %d",
				res.Stats.MaxCertBits, bits)
		}
	})
}
