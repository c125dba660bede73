package engine_test

import (
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/spanningtree"
	"rpls/internal/schemes/uniform"
)

// The golden-bits contract: wire accounting is part of the determinism
// guarantee. For the same seed, the round kernel and Batched must report
// TotalBits/MaxPortBits/AvgBitsPerEdge identical to the goroutine-per-node
// oracle's, at every parallelism level, for
// deterministic and randomized schemes alike — and the numbers must be
// nonzero, or the det-vs-rand communication gap is unmeasurable.

func wireSchemes(t *testing.T) []struct {
	name   string
	s      engine.Scheme
	cfg    *graph.Config
	labels []core.Label
} {
	t.Helper()
	out := []struct {
		name   string
		s      engine.Scheme
		cfg    *graph.Config
		labels []core.Label
	}{}
	add := func(name string, s engine.Scheme, cfg *graph.Config) {
		labels, err := s.Label(cfg)
		if err != nil {
			t.Fatalf("%s prover: %v", name, err)
		}
		out = append(out, struct {
			name   string
			s      engine.Scheme
			cfg    *graph.Config
			labels []core.Label
		}{name, s, cfg, labels})
	}
	add("spanningtree-det", engine.FromPLS(spanningtree.NewPLS()), experiments.BuildTreeConfig(36, 3))
	add("uniform-det", engine.FromPLS(uniform.NewPLS()), experiments.BuildUniformConfig(24, 32, 5))
	add("uniform-rand", engine.FromRPLS(uniform.NewRPLS()), experiments.BuildUniformConfig(24, 32, 5))
	add("spanningtree-compiled", engine.FromRPLS(core.Compile(spanningtree.NewPLS())), experiments.BuildTreeConfig(36, 3))
	return out
}

// TestGoldenWireBitsAcrossExecutors pins the wire contract: the same seed
// yields bit-identical wire counters on every executor (the oracle first,
// as the reference) at every parallelism level, and the counters are
// nonzero for det and rand alike.
func TestGoldenWireBitsAcrossExecutors(t *testing.T) {
	// The multiplicity dimension: every cell of the executor × parallelism
	// matrix must also be byte-identical under every message-multiplicity
	// cap, and the distinct-message meter must obey its conservation law
	// (DistinctMessages <= Messages, with equality only at unicast).
	for _, sc := range wireSchemes(t) {
		for _, mult := range []int{0, 1, 2, 4} {
			var ref engine.Summary
			first := true
			for _, mkExec := range []func() engine.Executor{
				newOracle,
				func() engine.Executor { return engine.NewSequential() },
				func() engine.Executor { return engine.NewBatched() },
			} {
				for _, p := range []int{1, 4, 16} {
					exec := mkExec()
					sum, err := engine.Estimate(sc.s, sc.cfg, engine.WithLabels(sc.labels),
						engine.WithTrials(24), engine.WithSeed(9),
						engine.WithMultiplicity(mult),
						engine.WithExecutor(exec), engine.WithParallelism(p))
					if err != nil {
						t.Fatal(err)
					}
					if first {
						ref, first = sum, false
						if ref.TotalBits <= 0 || ref.MaxPortBits <= 0 || ref.AvgBitsPerEdge <= 0 {
							t.Fatalf("%s m=%d: wire counters not measured: %+v", sc.name, mult, ref)
						}
						if ref.TotalMessages != int64(ref.Trials)*int64(2*sc.cfg.G.M()) {
							t.Fatalf("%s m=%d: %d messages, want trials × 2m = %d",
								sc.name, mult, ref.TotalMessages, ref.Trials*2*sc.cfg.G.M())
						}
						if ref.MaxCertBits != ref.MaxPortBits {
							t.Fatalf("%s m=%d: κ %d != max port bits %d (one message per port per round)",
								sc.name, mult, ref.MaxCertBits, ref.MaxPortBits)
						}
						if ref.TotalDistinct <= 0 || ref.TotalDistinct > ref.TotalMessages {
							t.Fatalf("%s m=%d: distinct messages %d outside (0, messages=%d]",
								sc.name, mult, ref.TotalDistinct, ref.TotalMessages)
						}
						continue
					}
					if sum != ref {
						t.Fatalf("%s m=%d: %s p=%d wire summary %+v != reference %+v",
							sc.name, mult, exec.Name(), p, sum, ref)
					}
				}
			}
		}
	}
}

// TestDetWireCostIsLabelBroadcast checks the deterministic convention: a
// det round ships labels[v] over every one of v's ports, so the exact total
// is Σ_v deg(v)·|label(v)| and κ is the largest transmitted label.
func TestDetWireCostIsLabelBroadcast(t *testing.T) {
	cfg := experiments.BuildTreeConfig(20, 7)
	s := engine.FromPLS(spanningtree.NewPLS())
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	wantPort := 0
	for v := 0; v < cfg.G.N(); v++ {
		deg := cfg.G.Degree(v)
		want += int64(deg * labels[v].Len())
		if deg > 0 && labels[v].Len() > wantPort {
			wantPort = labels[v].Len()
		}
	}
	res := engine.Verify(s, cfg, labels, engine.WithExecutor(engine.NewSequential()))
	if res.Stats.TotalWireBits != want {
		t.Errorf("TotalWireBits = %d, want Σ deg·|label| = %d", res.Stats.TotalWireBits, want)
	}
	if res.Stats.MaxPortBits != wantPort || res.Stats.MaxCertBits != wantPort {
		t.Errorf("port/cert bits = %d/%d, want %d",
			res.Stats.MaxPortBits, res.Stats.MaxCertBits, wantPort)
	}
	if res.Stats.Messages != 2*cfg.G.M() {
		t.Errorf("Messages = %d, want 2m = %d", res.Stats.Messages, 2*cfg.G.M())
	}
}

// TestDetRandGapMeasurable is the headline measurement in miniature: on
// the same instance, the uniform scheme's deterministic per-edge cost is
// the payload λ while the randomized fingerprint costs O(log λ) — the
// engine must expose a strictly larger deterministic AvgBitsPerEdge.
func TestDetRandGapMeasurable(t *testing.T) {
	cfg := experiments.BuildUniformConfig(16, 128, 11) // λ = 1024 bits
	det := engine.FromPLS(uniform.NewPLS())
	rand := engine.FromRPLS(uniform.NewRPLS())
	detSum, err := engine.Estimate(det, cfg, engine.WithTrials(1), engine.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	randSum, err := engine.Estimate(rand, cfg, engine.WithTrials(16), engine.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if detSum.AvgBitsPerEdge != 1024 {
		t.Errorf("det per-edge cost %v, want the 1024-bit payload", detSum.AvgBitsPerEdge)
	}
	if randSum.AvgBitsPerEdge <= 0 || randSum.AvgBitsPerEdge*8 > detSum.AvgBitsPerEdge {
		t.Errorf("rand per-edge cost %v not ≪ det %v", randSum.AvgBitsPerEdge, detSum.AvgBitsPerEdge)
	}
}

// flatScheme is a deterministic scheme whose Decide allocates nothing, so
// the warm Sequential round isolates the executor's own hot path: scratch
// reuse plus the wire counters must not allocate at all.
type flatScheme struct{}

func (flatScheme) Name() string        { return "flat" }
func (flatScheme) Deterministic() bool { return true }
func (flatScheme) OneSided() bool      { return true }
func (flatScheme) Label(c *graph.Config) ([]core.Label, error) {
	labels := make([]core.Label, c.G.N())
	for v := range labels {
		labels[v] = bitstring.FromBits([]byte{1, 0, 1})
	}
	return labels, nil
}
func (flatScheme) Certs(core.View, core.Label, *prng.Rand) []core.Cert { return nil }
func (flatScheme) Decide(view core.View, own core.Label, received []core.Cert) bool {
	ok := true
	for _, r := range received {
		ok = ok && r.Len() == own.Len()
	}
	return ok
}

// TestSequentialRoundAllocs is the dynamic half of the hot-path contract:
// once scratch is warm, a deterministic Sequential round — wire metering
// included — performs zero allocations. The static half is plsvet's
// hotalloc analyzer over the //pls:hotpath annotations, and the benchgate
// allocation band locks the measured value in CI.
func TestSequentialRoundAllocs(t *testing.T) {
	cfg := graph.NewConfig(graph.RandomTree(128, prng.New(3)))
	s := flatScheme{}
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := engine.NewSequential()
	exec.Round(s, cfg, labels, 1) // warm the scratch buffers
	if n := testing.AllocsPerRun(20, func() { exec.Round(s, cfg, labels, 2) }); n != 0 {
		t.Fatalf("warm deterministic Sequential round allocates %v times, want 0", n)
	}
}
