package engine_test

import (
	"math"
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

// The t-round golden-bits contract: sharded execution is part of the same
// determinism guarantee as the single round. For the same seed and any
// t ∈ {1, 2, 4}, the round kernel and Batched at any parallelism level must
// report Summaries bit-identical to the goroutine-per-node oracle's; the
// per-message maxima must be exactly the ⌈κ/t⌉ shard width; totals must be
// conserved (sharding moves bits between rounds, it does not create or
// destroy them); and the votes must equal the base scheme's votes for the
// same seed, because the reassembled strings are the base strings.

func shardFixtures(t *testing.T) []struct {
	name   string
	base   engine.Scheme
	cfg    *graph.Config
	labels []core.Label
} {
	t.Helper()
	out := []struct {
		name   string
		base   engine.Scheme
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
			base   engine.Scheme
			cfg    *graph.Config
			labels []core.Label
		}{name, s, cfg, labels})
	}
	add("spanningtree-det", engine.FromPLS(spanningtree.NewPLS()), experiments.BuildTreeConfig(30, 5))
	add("uniform-det", engine.FromPLS(uniform.NewPLS()), experiments.BuildUniformConfig(20, 24, 6))
	add("uniform-rand", engine.FromRPLS(uniform.NewRPLS()), experiments.BuildUniformConfig(20, 24, 6))
	return out
}

// TestGoldenWireBitsSharded is the satellite golden test: per executor and
// per t ∈ {1, 2, 4}, the wire Summary is bit-identical across executors
// and parallelism levels, the per-round port maximum is exactly
// ⌈base κ/t⌉, and the total bits and acceptance equal the base run's.
func TestGoldenWireBitsSharded(t *testing.T) {
	makeExecs := []func() engine.Executor{
		newOracle,
		func() engine.Executor { return engine.NewSequential() },
		func() engine.Executor { return engine.NewBatched() },
	}
	for _, fx := range shardFixtures(t) {
		base, err := engine.Estimate(fx.base, fx.cfg, engine.WithLabels(fx.labels),
			engine.WithTrials(12), engine.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		for _, rounds := range []int{1, 2, 4} {
			s, err := engine.Shard(fx.base, rounds)
			if err != nil {
				t.Fatalf("%s: Shard(t=%d): %v", fx.name, rounds, err)
			}
			if got := engine.Rounds(s); got != rounds {
				t.Fatalf("%s: Rounds = %d, want %d", fx.name, got, rounds)
			}
			var ref engine.Summary
			first := true
			for _, mkExec := range makeExecs {
				for _, p := range []int{1, 4} {
					sum, err := engine.Estimate(s, fx.cfg, engine.WithLabels(fx.labels),
						engine.WithTrials(12), engine.WithSeed(5),
						engine.WithExecutor(mkExec()), engine.WithParallelism(p))
					if err != nil {
						t.Fatal(err)
					}
					if first {
						ref, first = sum, false
						continue
					}
					if sum != ref {
						t.Fatalf("%s t=%d: %T p=%d summary %+v != reference %+v",
							fx.name, rounds, mkExec(), p, sum, ref)
					}
				}
			}
			if rounds == 1 {
				// t = 1 must be the classic engine, bit for bit.
				if ref != base {
					t.Fatalf("%s: t=1 summary %+v != base %+v", fx.name, ref, base)
				}
				continue
			}
			if ref.Rounds != rounds {
				t.Errorf("%s t=%d: Summary.Rounds = %d", fx.name, rounds, ref.Rounds)
			}
			if want := core.ShardWidth(base.MaxCertBits, rounds); ref.MaxPortBits != want {
				t.Errorf("%s t=%d: bits-per-round %d, want ⌈κ/t⌉ = ⌈%d/%d⌉ = %d",
					fx.name, rounds, ref.MaxPortBits, base.MaxCertBits, rounds, want)
			}
			if ref.MaxCertBits != ref.MaxPortBits {
				t.Errorf("%s t=%d: κ %d != max port bits %d (one shard per port per round)",
					fx.name, rounds, ref.MaxCertBits, ref.MaxPortBits)
			}
			// Trial budgets may differ (coin-free sharded det collapses to one
			// trial elsewhere; here both ran 12), so compare per-trial totals.
			if ref.TotalBits != base.TotalBits {
				t.Errorf("%s t=%d: total bits %d != base %d (sharding must conserve bits)",
					fx.name, rounds, ref.TotalBits, base.TotalBits)
			}
			if ref.TotalMessages != int64(rounds)*base.TotalMessages {
				t.Errorf("%s t=%d: messages %d, want rounds × base = %d",
					fx.name, rounds, ref.TotalMessages, int64(rounds)*base.TotalMessages)
			}
			if ref.Accepted != base.Accepted {
				t.Errorf("%s t=%d: accepted %d/%d != base %d/%d",
					fx.name, rounds, ref.Accepted, ref.Trials, base.Accepted, base.Trials)
			}
		}
	}
}

// TestShardedVotesMatchBase pins the strongest form of the equivalence: on
// honest and adversarial labels alike, per seed, the sharded scheme's
// per-node votes equal the base scheme's — the reassembled strings are the
// base strings, so the decisions cannot differ.
func TestShardedVotesMatchBase(t *testing.T) {
	cfg := experiments.BuildUniformConfig(18, 16, 9)
	base := engine.FromRPLS(uniform.NewRPLS())
	honest, err := base.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An adversarial assignment: node 0's payload flipped after labeling.
	bad := append([]core.Label(nil), honest...)
	bad[0] = honest[0].Truncate(honest[0].Len() - 1)
	sharded, err := engine.Shard(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, labels := range [][]core.Label{honest, bad} {
		for seed := uint64(1); seed <= 8; seed++ {
			want := engine.Verify(base, cfg, labels, engine.WithSeed(seed), engine.WithStats(true))
			got := engine.Verify(sharded, cfg, labels, engine.WithSeed(seed), engine.WithStats(true))
			if len(got.Votes) != len(want.Votes) {
				t.Fatalf("vote vector length %d != %d", len(got.Votes), len(want.Votes))
			}
			for v := range got.Votes {
				if got.Votes[v] != want.Votes[v] {
					t.Fatalf("seed %d node %d: sharded vote %v != base vote %v",
						seed, v, got.Votes[v], want.Votes[v])
				}
			}
		}
	}
}

// TestShardEdgeCases covers the round-count edge cases at the engine
// boundary: t <= 0 is rejected, t = 1 is the identity, and t far beyond κ
// still verifies correctly with empty late rounds.
func TestShardEdgeCases(t *testing.T) {
	base := engine.FromPLS(spanningtree.NewPLS())
	if _, err := engine.Shard(base, 0); err == nil {
		t.Error("Shard(t=0) accepted, want error")
	}
	if _, err := engine.Shard(base, -3); err == nil {
		t.Error("Shard(t=-3) accepted, want error")
	}
	same, err := engine.Shard(base, 1)
	if err != nil || same != base {
		t.Errorf("Shard(t=1) = (%v, %v), want the scheme unchanged", same, err)
	}

	cfg := experiments.BuildTreeConfig(12, 2)
	labels, err := base.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kappa := core.MaxBits(labels)
	huge, err := engine.Shard(base, kappa+50) // t > κ: late rounds are empty
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Verify(huge, cfg, labels, engine.WithSeed(2))
	if !res.Accepted {
		t.Fatalf("t=%d > κ=%d rejects an honest instance", kappa+50, kappa)
	}
	if res.Stats.MaxPortBits != 1 {
		t.Errorf("t > κ: bits-per-round %d, want 1", res.Stats.MaxPortBits)
	}
	if res.Stats.Rounds != kappa+50 {
		t.Errorf("Stats.Rounds = %d, want %d", res.Stats.Rounds, kappa+50)
	}
}

// TestShardKeepsDeterministic pins the trial-collapse rule: deterministic
// schemes are deterministic sharded or not, and randomized schemes, sharded
// or not, are not.
func TestShardKeepsDeterministic(t *testing.T) {
	det := engine.FromPLS(spanningtree.NewPLS())
	rand := engine.FromRPLS(uniform.NewRPLS())
	shardedDet, err := engine.Shard(det, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardedRand, err := engine.Shard(rand, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    engine.Scheme
		want bool
	}{
		{"det", det, true},
		{"rand", rand, false},
		{"sharded-det", shardedDet, true},
		{"sharded-rand", shardedRand, false},
	} {
		if got := tc.s.Deterministic(); got != tc.want {
			t.Errorf("%s: Deterministic() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShardedDetDistinctMessages pins the structural distinct-message
// count of a sharded deterministic scheme: it broadcasts its label, one
// shard per round, so every node mints one distinct message per round at
// every cap — n·t on a configuration without isolated nodes. Every
// registered deterministic variant runs at t ∈ {2, 4} and m ∈ {0, 1, 2}.
func TestShardedDetDistinctMessages(t *testing.T) {
	for _, tc := range nodeCases(t) {
		if !tc.s.Deterministic() {
			continue
		}
		for _, rounds := range []int{2, 4} {
			s, err := engine.Shard(tc.s, rounds)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{0, 1, 2} {
				res := engine.Verify(s, tc.cfg, tc.labels, engine.WithMultiplicity(m))
				if want := int64(tc.cfg.G.N() * rounds); res.Stats.DistinctMessages != want {
					t.Errorf("%s t=%d m=%d: DistinctMessages = %d, want n·t = %d", tc.name, rounds, m, res.Stats.DistinctMessages, want)
				}
			}
		}
	}
}

// TestShardedEstimateParallelDeterminism extends the estimator determinism
// guarantee to the rounds axis with early stopping in play.
func TestShardedEstimateParallelDeterminism(t *testing.T) {
	cfg := experiments.BuildUniformConfig(16, 16, 3)
	base := engine.FromRPLS(uniform.NewRPLS())
	s, err := engine.Shard(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ref engine.Summary
	for i, p := range []int{1, 2, 5, 16} {
		sum, err := engine.Estimate(s, cfg, engine.WithLabels(labels),
			engine.WithTrials(100), engine.WithSeed(17),
			engine.WithParallelism(p), engine.WithMaxSE(0.08))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = sum
			continue
		}
		if sum != ref {
			t.Fatalf("p=%d sharded summary %+v != p=1 %+v", p, sum, ref)
		}
	}
}

// TestShardRejectsBadRounds pins the t = 0 contract for both adapter
// kinds: zero and negative round counts are rejected, while t ≫ κ is legal
// (the late rounds just carry empty shards).
func TestShardRejectsBadRounds(t *testing.T) {
	for _, base := range []engine.Scheme{engine.FromPLS(spanningtree.NewPLS()), engine.FromRPLS(uniform.NewRPLS())} {
		for _, bad := range []int{0, -1, -100} {
			if _, err := engine.Shard(base, bad); err == nil {
				t.Errorf("Shard(%s, t=%d) accepted, want error", base.Name(), bad)
			}
		}
		if _, err := engine.Shard(base, 1_000_000); err != nil {
			t.Errorf("Shard(%s, t≫κ): %v, want accepted", base.Name(), err)
		}
	}
}

// TestShardedPLSReassemblesLabels follows a sharded deterministic scheme's
// shards by hand: concatenating the oracle's per-round shards from each
// neighbor must reconstruct that neighbor's label, and the oracle's vote
// must equal the base verifier's verdict on the reassembled labels.
func TestShardedPLSReassemblesLabels(t *testing.T) {
	cfg := graph.NewConfig(graph.RandomTree(12, prng.New(3)))
	base := spanningtree.NewPLS()
	for v, p := range cfg.G.SpanningTreeParents(0) {
		cfg.States[v].Parent = p
	}
	cfg.AssignRandomIDs(prng.New(4))
	labels, err := base.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	sharded, err := engine.Shard(engine.FromPLS(base), rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !sharded.OneSided() || engine.Rounds(sharded) != rounds || !sharded.Deterministic() {
		t.Fatalf("sharded deterministic scheme: one-sided=%v rounds=%d deterministic=%v",
			sharded.OneSided(), engine.Rounds(sharded), sharded.Deterministic())
	}
	votes, _ := newOracle().Round(sharded, cfg, labels, 1)
	for v := 0; v < cfg.G.N(); v++ {
		view := core.ViewOf(cfg, v)
		recv := make([]core.Cert, view.Deg)
		for i, h := range cfg.G.Adj(v) {
			strs := nodeStrings(sharded, core.ViewOf(cfg, h.To), labels[h.To], prng.New(1).Fork(uint64(h.To)))
			parts := make([]bitstring.String, rounds)
			for r := range parts {
				parts[r] = core.Shard(strs[h.RevPort-1], r, rounds)
			}
			recv[i] = bitstring.Concat(parts...)
			if !recv[i].Equal(labels[h.To]) {
				t.Fatalf("node %d port %d: reassembled %q != neighbor label %q", v, i+1, recv[i], labels[h.To])
			}
		}
		want := base.Verify(view, labels[v], recv)
		if !want {
			t.Fatalf("node %d: base verifier rejects honest reassembled labels", v)
		}
		if votes[v] != want {
			t.Fatalf("node %d: sharded vote %v != base Verify %v", v, votes[v], want)
		}
	}
}

// TestShardedCertsPreserveBase checks the coin contract of a sharded
// randomized scheme: for the same coins its Certs are the base Certs, and
// their core.Shard pieces concatenate back to them.
func TestShardedCertsPreserveBase(t *testing.T) {
	cfg := graph.NewConfig(graph.Complete(6))
	for v := range cfg.States {
		cfg.States[v].Data = []byte{0xde, 0xad, 0xbe, 0xef}
	}
	base := engine.FromRPLS(uniform.NewRPLS())
	labels, err := base.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rounds := range []int{1, 2, 4, 7, 1000} {
		sharded, err := engine.Shard(base, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < cfg.G.N(); v++ {
			view := core.ViewOf(cfg, v)
			want := base.Certs(view, labels[v], prng.New(11).Fork(uint64(v)))
			got := sharded.Certs(view, labels[v], prng.New(11).Fork(uint64(v)))
			if len(got) != len(want) {
				t.Fatalf("rounds=%d node %d: %d certs, base drew %d", rounds, v, len(got), len(want))
			}
			for port := range want {
				if !got[port].Equal(want[port]) {
					t.Fatalf("rounds=%d node %d port %d: sharded cert differs from base draw", rounds, v, port)
				}
				parts := make([]bitstring.String, rounds)
				for r := range parts {
					parts[r] = core.Shard(got[port], r, rounds)
				}
				if !bitstring.Concat(parts...).Equal(want[port]) {
					t.Fatalf("rounds=%d node %d port %d: shards do not reassemble the base cert", rounds, v, port)
				}
			}
		}
	}
}

// FuzzShardRounds fuzzes the round count at the engine boundary: t <= 0
// is rejected for a FromPLS and a FromRPLS base alike, and any t >= 1
// runs — an honest instance is accepted at ⌈κ/t⌉ bits per round with the
// base wire total, whatever t is, t > κ included.
func FuzzShardRounds(f *testing.F) {
	for _, rounds := range []int{0, -4, 1, 3, 100, 1 << 20, math.MaxInt} {
		f.Add(rounds)
	}
	cfg := experiments.BuildTreeConfig(8, 2)
	det := engine.FromPLS(spanningtree.NewPLS())
	bases := []engine.Scheme{det, engine.FromRPLS(uniform.NewRPLS())}
	labels, err := det.Label(cfg)
	if err != nil {
		f.Fatal(err)
	}
	want := engine.Verify(det, cfg, labels).Stats
	f.Fuzz(func(t *testing.T, rounds int) {
		for _, base := range bases {
			s, err := engine.Shard(base, rounds)
			if rounds < 1 {
				if err == nil {
					t.Fatalf("Shard(%s, t=%d) accepted", base.Name(), rounds)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Shard(%s, t=%d): %v", base.Name(), rounds, err)
			}
			if got := engine.Rounds(s); got != rounds {
				t.Fatalf("Rounds(Shard(%s, %d)) = %d", base.Name(), rounds, got)
			}
		}
		if rounds < 1 {
			return
		}
		s, _ := engine.Shard(det, rounds)
		res := engine.Verify(s, cfg, labels)
		if !res.Accepted {
			t.Fatalf("t=%d rejects an honest instance", rounds)
		}
		if w := core.ShardWidth(want.MaxCertBits, rounds); res.Stats.MaxPortBits != w || res.Stats.TotalWireBits != want.TotalWireBits {
			t.Fatalf("t=%d: %d bits per round and %d wire bits, want %d and %d",
				rounds, res.Stats.MaxPortBits, res.Stats.TotalWireBits, w, want.TotalWireBits)
		}
	})
}

// TestShardedVerifyAllocsOncePerTrial pins "once per trial": strings are
// derived once per node whatever t is, so a warm Verify of the uniform
// scheme allocates as much at t = 2 and t = 4 as at t = 1, and under a
// replication cap (m = 2) as much at t = 4 as at t = 2.
func TestShardedVerifyAllocsOncePerTrial(t *testing.T) {
	cfg := experiments.BuildUniformConfig(64, 32, 1)
	base := engine.FromRPLS(uniform.NewRPLS())
	labels, err := base.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := engine.NewSequential()
	allocs := func(rounds, m int) float64 {
		s, err := engine.Shard(base, rounds)
		if err != nil {
			t.Fatal(err)
		}
		opts := []engine.Option{engine.WithSeed(2), engine.WithExecutor(exec), engine.WithMultiplicity(m)}
		engine.Verify(s, cfg, labels, opts...) // warm the scratch
		return testing.AllocsPerRun(10, func() { engine.Verify(s, cfg, labels, opts...) })
	}
	one := allocs(1, 0)
	for _, rounds := range []int{2, 4} {
		if got := allocs(rounds, 0); got != one {
			t.Errorf("t=%d: %v allocs per Verify, want t=1's %v", rounds, got, one)
		}
	}
	if two, four := allocs(2, 2), allocs(4, 2); four != two {
		t.Errorf("m=2: t=4 allocates %v per Verify, want t=2's %v", four, two)
	}
}
