package engine_test

import (
	"fmt"
	"sync/atomic"
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

// corruptedUniform returns a uniform-payload configuration with one node's
// payload flipped plus the honest labels of the healthy twin — an instance
// whose acceptance rate is strictly between 0 and 1, which exercises the
// interval math and the early-stop rules.
func corruptedUniform(t *testing.T, n int, seed uint64) (engine.Scheme, *graph.Config, []core.Label) {
	t.Helper()
	s := engine.FromRPLS(uniform.NewRPLS())
	cfg := experiments.BuildUniformConfig(n, 8, seed)
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg.Clone()
	bad.States[n/2].Data[0] ^= 0x01
	return s, bad, labels
}

// corruptedCompiled returns the compiled uniform scheme on a path whose
// last node carries payload Y while the others carry X, under labels in
// which that node claims Y everywhere and its neighbour keeps its honest
// replica X. Both inner verifiers accept, so only the two fingerprint
// checks across the last edge can reject: X − Y is the polynomial x⁷ − 1,
// which has 7 roots in GF(29), so each check passes with probability 7/29
// and the acceptance rate is strictly between 0 and 1.
func corruptedCompiled(t *testing.T) (core.RPLS, *graph.Config, []core.Label) {
	t.Helper()
	x, y := []byte{0x41}, []byte{0xC0}
	legal := graph.NewConfig(graph.Path(6))
	for v := range legal.States {
		legal.States[v].Data = x
	}
	s := core.Compile(uniform.NewPLS())
	labels, err := s.Label(legal)
	if err != nil {
		t.Fatal(err)
	}
	bad := legal.Clone()
	last := bad.G.N() - 1
	bad.States[last].Data = y
	claim := bitstring.FromBytes(y)
	var w bitstring.Writer
	for i := 0; i <= bad.G.Degree(last); i++ {
		w.WriteGamma(uint64(claim.Len()))
		w.WriteString(claim)
	}
	labels[last] = w.String()
	return s, bad, labels
}

// labelPath hides the optional extensions of the RPLS it wraps —
// core.Preparer among them — so the executors answer it through
// core.LabelNodes over its label path.
type labelPath struct{ core.RPLS }

// TestEstimateParallelDeterminism extends the executor-parity guarantee to
// the batch layer: the same seed must yield a bit-identical Summary for
// every parallelism level crossed with every executor — with and without
// the early-stop rules. An input with a ref scheme takes its reference
// Summary from it on the label path, so the prepared estimator is checked
// against Certs and Decide.
func TestEstimateParallelDeterminism(t *testing.T) {
	type input struct {
		name   string
		s      engine.Scheme
		cfg    *graph.Config
		labels []core.Label
		ref    engine.Scheme
	}
	var schemes []input

	// A deterministic scheme under honest labels.
	det := engine.FromPLS(spanningtree.NewPLS())
	detCfg := experiments.BuildTreeConfig(40, 5)
	detLabels, err := det.Label(detCfg)
	if err != nil {
		t.Fatal(err)
	}
	schemes = append(schemes, input{"spanningtree-det", det, detCfg, detLabels, nil})

	// A randomized scheme with interior acceptance rate.
	s, bad, labels := corruptedUniform(t, 30, 7)
	schemes = append(schemes, input{"uniform-corrupted", s, bad, labels, nil})

	// A compiled scheme with interior acceptance rate: prepared nodes on
	// both executors, the label path for the reference.
	cs, cbad, clabels := corruptedCompiled(t)
	schemes = append(schemes, input{"compiled-corrupted", engine.FromRPLS(cs), cbad, clabels,
		engine.FromRPLS(labelPath{cs})})

	extraOpts := map[string][]engine.Option{
		"full":         nil,
		"maxse":        {engine.WithMaxSE(0.12)},
		"stoponreject": {engine.WithStopOnReject(true)},
	}

	for _, sc := range schemes {
		for optName, extra := range extraOpts {
			if optName == "maxse" && sc.s.Deterministic() {
				// The validated options layer rejects early stopping on a
				// coin-free scheme (every trial is the same execution);
				// TestOptionValidation pins the typed error.
				continue
			}
			estimate := func(s engine.Scheme, exec engine.Executor, p int) engine.Summary {
				opts := append([]engine.Option{
					engine.WithLabels(sc.labels), engine.WithTrials(200),
					engine.WithSeed(11), engine.WithExecutor(exec),
					engine.WithParallelism(p),
				}, extra...)
				sum, err := engine.Estimate(s, sc.cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return sum
			}
			var ref engine.Summary
			first := sc.ref == nil
			if !first {
				ref = estimate(sc.ref, engine.NewSequential(), 1)
				if optName == "full" && (ref.Accepted == 0 || ref.Accepted == ref.Trials) {
					t.Fatalf("%s: acceptance %d/%d is not interior", sc.name, ref.Accepted, ref.Trials)
				}
			}
			for _, mkExec := range []func() engine.Executor{
				newOracle,
				func() engine.Executor { return engine.NewSequential() },
				func() engine.Executor { return engine.NewBatched() },
			} {
				for _, p := range []int{1, 4, 16} {
					exec := mkExec()
					sum := estimate(sc.s, exec, p)
					if first {
						ref, first = sum, false
						continue
					}
					if sum != ref {
						t.Fatalf("%s/%s: %s p=%d Summary %+v != reference %+v",
							sc.name, optName, exec.Name(), p, sum, ref)
					}
				}
			}
		}
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := engine.WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("vacuous interval = [%v, %v], want [0, 1]", lo, hi)
	}
	// The interval contains the point estimate and stays inside [0, 1].
	for _, tc := range []struct{ acc, trials int }{
		{0, 10}, {10, 10}, {5, 10}, {1, 400}, {399, 400},
	} {
		lo, hi := engine.WilsonInterval(tc.acc, tc.trials)
		phat := float64(tc.acc) / float64(tc.trials)
		if lo < 0 || hi > 1 || lo > phat || hi < phat {
			t.Errorf("WilsonInterval(%d, %d) = [%v, %v] does not bracket %v",
				tc.acc, tc.trials, lo, hi, phat)
		}
	}
	// More trials at the same rate tighten the interval.
	lo1, hi1 := engine.WilsonInterval(50, 100)
	lo2, hi2 := engine.WilsonInterval(500, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("interval did not shrink: %v vs %v", hi2-lo2, hi1-lo1)
	}
}

func TestEstimateMaxSEStopsEarly(t *testing.T) {
	s, bad, labels := corruptedUniform(t, 24, 3)
	full, err := engine.Estimate(s, bad, engine.WithLabels(labels),
		engine.WithTrials(5000), engine.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	early, err := engine.Estimate(s, bad, engine.WithLabels(labels),
		engine.WithTrials(5000), engine.WithSeed(2), engine.WithMaxSE(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if early.Trials >= full.Trials {
		t.Fatalf("maxSE did not stop early: %d trials of %d", early.Trials, full.Trials)
	}
	if half := (early.CIHigh - early.CILow) / 2; half > 0.11 {
		t.Errorf("stopped with a loose interval: half-width %v", half)
	}
	// The early summary must be the exact prefix of the full run.
	prefix, err := engine.Estimate(s, bad, engine.WithLabels(labels),
		engine.WithTrials(early.Trials), engine.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if prefix != early {
		t.Errorf("early stop diverged from the serial prefix: %+v vs %+v", early, prefix)
	}
}

func TestEstimateStopOnReject(t *testing.T) {
	// A legal instance under honest labels never rejects: the full budget runs.
	s := engine.FromRPLS(uniform.NewRPLS())
	cfg := experiments.BuildUniformConfig(16, 8, 9)
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := engine.Estimate(s, cfg, engine.WithLabels(labels),
		engine.WithTrials(150), engine.WithStopOnReject(true))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials != 150 || sum.Accepted != 150 {
		t.Fatalf("legal run stopped early: %+v", sum)
	}

	// A corrupted instance stops at its first rejection with exact counts.
	bs, bad, blabels := corruptedUniform(t, 16, 9)
	sum, err = engine.Estimate(bs, bad, engine.WithLabels(blabels),
		engine.WithTrials(5000), engine.WithSeed(4), engine.WithStopOnReject(true))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials == 5000 {
		t.Fatalf("corrupted run never rejected in %d trials", sum.Trials)
	}
	if sum.Accepted != sum.Trials-1 {
		t.Fatalf("stop-on-reject counts off: accepted %d of %d", sum.Accepted, sum.Trials)
	}
}

// TestMaxCertBitsMatchesEstimate pins the satellite fix: MaxCertBits rides
// the same trial loop as Estimate instead of re-drawing certificates.
func TestMaxCertBitsMatchesEstimate(t *testing.T) {
	s := engine.FromRPLS(uniform.NewRPLS())
	cfg := experiments.BuildUniformConfig(20, 16, 6)
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := engine.MaxCertBits(s, cfg, labels, 5, 31)
	sum, err := engine.Estimate(s, cfg, engine.WithLabels(labels),
		engine.WithTrials(5), engine.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if got != sum.MaxCertBits {
		t.Fatalf("MaxCertBits = %d, Estimate tracked %d", got, sum.MaxCertBits)
	}
	if got <= 0 {
		t.Fatalf("MaxCertBits = %d, want > 0 for a randomized scheme", got)
	}
	// Deterministic schemes report the max label bits they transmit.
	if db := engine.MaxCertBits(engine.FromPLS(spanningtree.NewPLS()), cfg, labels, 5, 31); db != core.MaxBits(labels) {
		t.Fatalf("deterministic MaxCertBits = %d, want max label bits %d", db, core.MaxBits(labels))
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	s := engine.FromRPLS(spanningtree.NewRPLS())
	build := func(n int, seed uint64) (*graph.Config, error) {
		return experiments.BuildTreeConfig(n, seed), nil
	}
	sizes := []int{8, 12, 16, 24, 32, 48}
	serial, err := engine.Sweep(engine.Fixed(s), build, sizes,
		engine.WithTrials(20), engine.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 16} {
		par, err := engine.Sweep(engine.Fixed(s), build, sizes,
			engine.WithTrials(20), engine.WithSeed(3), engine.WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("p=%d: %d points, want %d", p, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("p=%d point %d: %+v != %+v", p, i, par[i], serial[i])
			}
		}
	}
	// A failing builder surfaces the error and the points before it.
	failAt := sizes[3]
	failing := func(n int, seed uint64) (*graph.Config, error) {
		if n == failAt {
			return nil, fmt.Errorf("boom")
		}
		return experiments.BuildTreeConfig(n, seed), nil
	}
	pts, err := engine.Sweep(engine.Fixed(s), failing, sizes,
		engine.WithTrials(5), engine.WithSeed(3), engine.WithParallelism(4))
	if err == nil {
		t.Fatal("sweep swallowed the builder error")
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points before the failure, want 3", len(pts))
	}
}

func TestSoundnessReportsAllAdversaries(t *testing.T) {
	// Spanning tree with a second root: a classic illegal twin of the same
	// size, so all three adversary families run.
	s := engine.FromRPLS(spanningtree.NewRPLS())
	legal := experiments.BuildTreeConfig(24, 5)
	illegal := legal.Clone()
	for v := 1; v < illegal.G.N(); v++ {
		if illegal.States[v].Parent != 0 {
			illegal.States[v].Parent = 0
			break
		}
	}
	results, err := engine.Soundness(s, legal, illegal,
		engine.WithTrials(60), engine.WithSeed(2), engine.WithAssignments(4))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{engine.AdversaryTransplant, engine.AdversaryRandom, engine.AdversaryBitFlip}
	if len(results) != len(want) {
		t.Fatalf("got %d adversaries, want %d: %+v", len(results), len(want), results)
	}
	for i, r := range results {
		if r.Adversary != want[i] {
			t.Fatalf("adversary %d = %q, want %q", i, r.Adversary, want[i])
		}
		if r.Worst.Trials == 0 {
			t.Fatalf("%s: empty estimate", r.Adversary)
		}
		// Soundness of the paper's schemes: acceptance stays below 1/2 per
		// adversary with margin (the estimate uses 60 trials).
		if r.Worst.Acceptance > 0.5 {
			t.Errorf("%s: worst acceptance %v > 0.5 (summary %+v)",
				r.Adversary, r.Worst.Acceptance, r.Worst)
		}
	}
	// Deterministic: the same options give the same report.
	again, err := engine.Soundness(s, legal, illegal,
		engine.WithTrials(60), engine.WithSeed(2), engine.WithAssignments(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if again[i] != results[i] {
			t.Fatalf("soundness not reproducible: %+v vs %+v", again[i], results[i])
		}
	}

	// Without a legal twin only the random adversary runs.
	solo, err := engine.Soundness(s, nil, illegal,
		engine.WithTrials(20), engine.WithSeed(2), engine.WithAssignments(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 1 || solo[0].Adversary != engine.AdversaryRandom {
		t.Fatalf("nil legal twin: %+v", solo)
	}
}

// decideCounter is a one-sided fixture that counts its prepared nodes'
// Decide calls. Labels and certificates are empty; node 0 rejects every
// lane when reject0 is set, and every other vote accepts.
type decideCounter struct {
	reject0 bool
	calls   atomic.Int64
}

func (d *decideCounter) Name() string   { return "decide-counter" }
func (d *decideCounter) OneSided() bool { return true }

func (d *decideCounter) Label(c *graph.Config) ([]core.Label, error) {
	return make([]core.Label, c.G.N()), nil
}

func (d *decideCounter) Certs(view core.View, own core.Label, rng *prng.Rand) []core.Cert {
	return make([]core.Cert, view.Deg)
}

func (d *decideCounter) Decide(view core.View, own core.Label, received []core.Cert) bool {
	return !(d.reject0 && view.Node == 0)
}

func (d *decideCounter) Prepare(view core.View, own core.Label) core.Prepared {
	return &decideCounterNode{d: d, node: view.Node}
}

type decideCounterNode struct {
	d    *decideCounter
	node int
}

func (n *decideCounterNode) Certs(rngs []*prng.Rand, out [][]core.Cert, sc *core.Scratch) {
	for _, row := range out {
		clear(row)
	}
}

func (n *decideCounterNode) Decide(recv [][]core.Cert, sc *core.Scratch) uint64 {
	n.d.calls.Add(1)
	if n.d.reject0 && n.node == 0 {
		return 0
	}
	return core.LaneMask(len(recv))
}

// TestEstimateStopsDecidingAtFirstRejection pins the decide pass's short
// circuit: an estimate needs only each trial's acceptance, so a run stops
// deciding once every lane in it has rejected, while Verify (one Round)
// still decides every node. Node 0 decides first and rejects every lane,
// so a 64-trial estimate makes one Decide call per run: 64 one-lane runs
// on Sequential, one 64-lane run on Batched. With no rejecting node every
// node decides in every run.
func TestEstimateStopsDecidingAtFirstRejection(t *testing.T) {
	cfg := graph.NewConfig(graph.Path(8))
	n := int64(cfg.G.N())
	for _, tc := range []struct {
		exec engine.Executor
		runs int64 // runs a 64-trial estimate makes
	}{{engine.NewSequential(), 64}, {engine.NewBatched(), 1}} {
		for _, reject0 := range []bool{true, false} {
			d := &decideCounter{reject0: reject0}
			s := engine.FromRPLS(d)
			sum, err := engine.Estimate(s, cfg, engine.WithTrials(64), engine.WithSeed(3),
				engine.WithExecutor(tc.exec), engine.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			want, accepted := tc.runs*n, 64
			if reject0 {
				want, accepted = tc.runs, 0
			}
			if got := d.calls.Load(); got != want {
				t.Errorf("%s, reject0=%v: 64-trial estimate made %d Decide calls, want %d",
					tc.exec.Name(), reject0, got, want)
			}
			if sum.Accepted != accepted || sum.Trials != 64 {
				t.Errorf("%s, reject0=%v: accepted %d of %d trials, want %d of 64",
					tc.exec.Name(), reject0, sum.Accepted, sum.Trials, accepted)
			}

			d.calls.Store(0)
			res := engine.Verify(s, cfg, make([]core.Label, n), engine.WithSeed(3),
				engine.WithExecutor(tc.exec), engine.WithStats(true))
			if got := d.calls.Load(); got != n {
				t.Errorf("%s, reject0=%v: Verify made %d Decide calls, want one per node (%d)",
					tc.exec.Name(), reject0, got, n)
			}
			for v, vote := range res.Votes {
				if want := !(reject0 && v == 0); vote != want {
					t.Errorf("%s, reject0=%v: Verify vote of node %d = %v, want %v",
						tc.exec.Name(), reject0, v, vote, want)
				}
			}
		}
	}
}
