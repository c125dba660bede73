package coloring_test

import (
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/coloring"
	"rpls/internal/schemes/schemetest"
)

// greedyColor assigns a proper coloring to the configuration.
func greedyColor(c *graph.Config) {
	for v := 0; v < c.G.N(); v++ {
		used := make(map[int64]bool)
		for _, h := range c.G.Adj(v) {
			if h.To < v {
				used[c.States[h.To].Color] = true
			}
		}
		col := int64(0)
		for used[col] {
			col++
		}
		c.States[v].Color = col
	}
}

func TestPredicate(t *testing.T) {
	c := graph.NewConfig(graph.Path(4))
	greedyColor(c)
	if !(coloring.Predicate{}).Eval(c) {
		t.Error("greedy coloring rejected")
	}
	c.States[1].Color = c.States[0].Color
	if (coloring.Predicate{}).Eval(c) {
		t.Error("monochromatic edge accepted")
	}
}

func TestDeterministicCompleteness(t *testing.T) {
	rng := prng.New(1)
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(30)
		c := graph.NewConfig(graph.RandomConnected(n, rng.Intn(2*n), rng))
		greedyColor(c)
		schemetest.New(uint64(trial)).LegalAccepted(t, coloring.NewPLS(), c)
	}
}

func TestDeterministicSoundness(t *testing.T) {
	c := graph.NewConfig(graph.Path(5))
	greedyColor(c)
	illegal := c.Clone()
	illegal.States[2].Color = illegal.States[1].Color
	h := schemetest.New(2)
	h.TransplantRejected(t, coloring.NewPLS(), c, illegal)
	h.RandomLabelsRejected(t, coloring.NewPLS(), illegal, 200, 80)
}

func TestRandomizedCompletenessAboveTwoThirds(t *testing.T) {
	// Two-sided scheme: legal configurations accepted with probability
	// >= 2/3 thanks to the union-bound field tuning.
	rng := prng.New(3)
	for trial := 0; trial < 5; trial++ {
		n := 5 + rng.Intn(20)
		g := graph.RandomConnected(n, rng.Intn(2*n), rng)
		c := graph.NewConfig(g)
		greedyColor(c)
		s := coloring.NewRPLS(g.M())
		labels, err := s.Label(c)
		if err != nil {
			t.Fatal(err)
		}
		if rate := engine.Acceptance(engine.FromRPLS(s), c, labels, 400, uint64(trial)); rate < 2.0/3 {
			t.Errorf("trial %d: legal acceptance %v < 2/3", trial, rate)
		}
	}
}

func TestRandomizedPerfectSoundness(t *testing.T) {
	// A monochromatic edge always produces matching fingerprints: rejection
	// with probability 1.
	c := graph.NewConfig(graph.Path(6))
	greedyColor(c)
	c.States[3].Color = c.States[2].Color
	s := coloring.NewRPLS(c.G.M())
	labels := make([]core.Label, 6)
	if rate := engine.Acceptance(engine.FromRPLS(s), c, labels, 300, 5); rate != 0 {
		t.Errorf("illegal coloring accepted at rate %v, want 0", rate)
	}
}

func TestRandomizedNotOneSided(t *testing.T) {
	if coloring.NewRPLS(10).OneSided() {
		t.Error("the coloring RPLS errs on legal instances; it must report two-sided")
	}
}

func TestUnionBoundTuning(t *testing.T) {
	// An UNDER-provisioned field (built for 1 edge) on a large graph must
	// show visibly worse completeness than the properly tuned one.
	rng := prng.New(7)
	g := graph.RandomConnected(60, 120, rng)
	c := graph.NewConfig(g)
	greedyColor(c)
	labels := make([]core.Label, g.N())

	tuned := coloring.NewRPLS(g.M())
	bad := coloring.NewRPLS(1)
	rateTuned := engine.Acceptance(engine.FromRPLS(tuned), c, labels, 300, 11)
	rateBad := engine.Acceptance(engine.FromRPLS(bad), c, labels, 300, 12)
	if rateTuned < 2.0/3 {
		t.Errorf("tuned scheme acceptance %v < 2/3", rateTuned)
	}
	if rateBad >= rateTuned {
		t.Errorf("under-provisioned field should hurt completeness: %v vs %v", rateBad, rateTuned)
	}
}

func TestBoostingRecoversConfidence(t *testing.T) {
	// Footnote 1 applied to a two-sided scheme: majority voting lifts
	// per-node confidence.
	rng := prng.New(9)
	g := graph.RandomConnected(30, 40, rng)
	c := graph.NewConfig(g)
	greedyColor(c)
	labels := make([]core.Label, g.N())
	base := coloring.NewRPLS(g.M())
	boosted := core.Boost(base, 7)
	rBase := engine.Acceptance(engine.FromRPLS(base), c, labels, 300, 13)
	rBoost := engine.Acceptance(engine.FromRPLS(boosted), c, labels, 300, 14)
	if rBoost < rBase {
		t.Errorf("boosting lowered legal acceptance: %v -> %v", rBase, rBoost)
	}
	// Soundness unaffected: monochromatic edge still always rejected.
	c.States[1].Color = c.States[0].Color
	if rate := engine.Acceptance(engine.FromRPLS(boosted), c, labels, 200, 15); rate != 0 {
		t.Errorf("boosted scheme accepted illegal coloring at %v", rate)
	}
}

func TestCertificateSizeLogarithmicInM(t *testing.T) {
	rng := prng.New(10)
	prev := 0
	for _, n := range []int{10, 40, 160} {
		g := graph.RandomConnected(n, n, rng)
		c := graph.NewConfig(g)
		greedyColor(c)
		s := coloring.NewRPLS(g.M())
		labels, err := s.Label(c)
		if err != nil {
			t.Fatal(err)
		}
		bits := engine.MaxCertBits(engine.FromRPLS(s), c, labels, 3, 3)
		if prev > 0 && bits > prev+20 {
			t.Errorf("n=%d: certificate jumped %d -> %d bits", n, prev, bits)
		}
		prev = bits
	}
}

// TestRandomizedRejectsTrailingBits: a certificate is exactly one
// fingerprint, so an honest certificate with junk bits appended must be
// rejected, as the fingerprint schemes reject any bits after theirs.
func TestRandomizedRejectsTrailingBits(t *testing.T) {
	c := graph.NewConfig(graph.Path(2))
	greedyColor(c)
	s := coloring.NewRPLS(c.G.M())
	labels, err := s.Label(c)
	if err != nil {
		t.Fatal(err)
	}
	sender, receiver := core.ViewOf(c, 0), core.ViewOf(c, 1)
	for seed := uint64(0); seed < 16; seed++ {
		cert := s.Certs(sender, labels[0], prng.New(seed))[0]
		if !s.Decide(receiver, labels[1], []core.Cert{cert}) {
			continue // a fingerprint collision of the two colors
		}
		if cert.Len() != 18 {
			t.Fatalf("honest certificate has %d bits, want 18", cert.Len())
		}
		junk := bitstring.Concat(cert, bitstring.FromBits([]byte{1, 0, 1, 1, 0, 0, 1, 0, 1}))
		if s.Decide(receiver, labels[1], []core.Cert{junk}) {
			t.Fatalf("seed %d: certificate with 9 trailing bits accepted", seed)
		}
		return
	}
	t.Fatal("no seed gave an accepted honest certificate")
}
