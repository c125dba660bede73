package engine_test

import (
	"runtime"
	"testing"
	"unsafe"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/mst"
	"rpls/internal/schemes/uniform"
)

// The lane loop's performance contract, asserted dynamically: a
// deterministic round stays zero-alloc once warm (the //pls:hotpath
// static half is plsvet's hotalloc analyzer), a warm estimate allocates
// nothing per trial on either executor, the executors keep their worker
// clones, and batching actually delivers a wall-clock multiple over
// Sequential's one-lane batches on the estimator workload the E14/E15
// benchmarks are built from.

// TestBatchedRoundAllocs mirrors TestSequentialRoundAllocs for Batched: a
// deterministic scheme's label-broadcast nodes live in reused scratch, so
// a warm batched round must allocate nothing.
func TestBatchedRoundAllocs(t *testing.T) {
	cfg := graph.NewConfig(graph.RandomTree(128, prng.New(3)))
	s := flatScheme{}
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := engine.NewBatched()
	exec.Round(s, cfg, labels, 1) // warm the scratch buffers
	if n := testing.AllocsPerRun(20, func() { exec.Round(s, cfg, labels, 2) }); n != 0 {
		t.Fatalf("warm deterministic Batched round allocates %v times, want 0", n)
	}
}

// batchedWorkload is the estimator call the amortization and speedup
// assertions compare across executors: a boosted uniform scheme — the
// E15 false-alarm workload — on a small legal configuration.
func batchedWorkload(t testing.TB, exec engine.Executor, trials int) engine.Summary {
	s := core.Boost(uniform.NewRPLS(), 2)
	cfg := graph.NewConfig(graph.RandomTree(12, prng.New(9)))
	for v := range cfg.States {
		cfg.States[v].Data = []byte{0xC3, 0x5A, 0x96, 0x0F}
	}
	scheme := engine.FromRPLS(s)
	labels, err := scheme.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := engine.Estimate(scheme, cfg, engine.WithLabels(labels),
		engine.WithTrials(trials), engine.WithSeed(5),
		engine.WithExecutor(exec), engine.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestEstimateAllocsFlatInTrials is the no-allocation contract of the
// lane loop: every node borrows its buffers from the executor's scratch,
// so once an executor is warm a 256-trial estimate allocates no more often
// than a 64-trial one. What an estimate still allocates — the prepared
// nodes, the outcome slice, the worker list — is per estimate, not per
// trial. The cases cover every node shape that draws from the scratch:
// the equality node (uniform rand, compiled MST), Boost's node, and the
// cap node's merge path through DecideWindows (uniform at m = 1).
func TestEstimateAllocsFlatInTrials(t *testing.T) {
	uni, err := conformanceFixtures["uniform"]()
	if err != nil {
		t.Fatal(err)
	}
	mstFx, err := conformanceFixtures["mst"]()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		s    engine.Scheme
		cfg  *graph.Config
		m    int
	}{
		{"uniform/rand", engine.FromRPLS(uniform.NewRPLS()), uni.legal, 0},
		{"mst/compiled", engine.FromRPLS(mst.NewRPLS()), mstFx.legal, 0},
		{"boost2-uniform", engine.FromRPLS(core.Boost(uniform.NewRPLS(), 2)), uni.legal, 0},
		{"uniform/rand/m=1", engine.FromRPLS(uniform.NewRPLS()), uni.legal, 1},
	}
	for _, tc := range cases {
		labels, err := tc.s.Label(tc.cfg)
		if err != nil {
			t.Fatalf("%s prover: %v", tc.name, err)
		}
		for _, name := range engine.ExecutorNames() {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				exec, err := engine.NewExecutor(name)
				if err != nil {
					t.Fatal(err)
				}
				estimate := func(trials int) {
					if _, err := engine.Estimate(tc.s, tc.cfg, engine.WithLabels(labels),
						engine.WithTrials(trials), engine.WithSeed(5), engine.WithExecutor(exec),
						engine.WithParallelism(1), engine.WithMultiplicity(tc.m)); err != nil {
						t.Fatal(err)
					}
				}
				estimate(256) // warm the plane and the scratch
				few := testing.AllocsPerRun(5, func() { estimate(64) })
				many := testing.AllocsPerRun(5, func() { estimate(256) })
				if many > few {
					t.Fatalf("warm estimate allocates %v times at 256 trials vs %v at 64; want no growth with trials", many, few)
				}
			})
		}
	}
}

// TestEstimateKeepsWorkerClones: an executor keeps the worker clones the
// estimator draws from it, so a repeated two-worker estimate reuses the
// second worker's plane and scratch instead of growing fresh ones. Without
// the kept clone, every estimate would allocate at least that worker's
// 64-lane plane.
func TestEstimateKeepsWorkerClones(t *testing.T) {
	cfg := graph.NewConfig(graph.RandomTree(256, prng.New(4)))
	s := engine.FromRPLS(uniform.NewRPLS())
	labels, err := s.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := engine.NewBatched()
	estimate := func() {
		if _, err := engine.Estimate(s, cfg, engine.WithLabels(labels), engine.WithTrials(256),
			engine.WithSeed(5), engine.WithExecutor(exec), engine.WithParallelism(2)); err != nil {
			t.Fatal(err)
		}
	}
	estimate() // warm both workers
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		estimate()
	}
	runtime.ReadMemStats(&after)
	plane := uint64(64 * 2 * cfg.G.M() * int(unsafe.Sizeof(core.Cert{})))
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= plane {
		t.Fatalf("warm two-worker estimate allocates %d bytes, at least one worker's %d-byte plane", perRun, plane)
	}
}

// TestMergedScratchHoldsOneInnerCall checks that DecideWindows' inner
// calls give their call scratch back. On a double star — two hubs of 127
// leaves each, joined by an edge — a merged (m = 1) hub reads the other
// hub's 128-member class message, so each of its lanes answers deg = 128
// windows of deg ports, 64 windows per inner call. One inner equality
// call takes 3·64·deg words; all of a hub's inner calls together take
// 3·deg² words per lane, while the hub's members and windows are
// O(lanes·deg). So a cold 64-lane estimate, scratch growth included, must
// allocate less than lanes·deg² words. Boost's node under the cap nests
// a second DecideWindows, whose inner calls must give theirs back too.
func TestMergedScratchHoldsOneInnerCall(t *testing.T) {
	const deg = 128
	g := graph.New(2 * deg)
	g.MustAddEdge(0, 1)
	for v := 2; v < g.N(); v++ {
		g.MustAddEdge(v%2, v)
	}
	cfg := graph.NewConfig(g)
	for _, r := range []core.RPLS{uniform.NewRPLS(), core.Boost(uniform.NewRPLS(), 2)} {
		s := engine.FromRPLS(r)
		labels, err := s.Label(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sum, err := engine.Estimate(s, cfg, engine.WithLabels(labels), engine.WithTrials(64),
			engine.WithSeed(5), engine.WithExecutor(engine.NewBatched()),
			engine.WithParallelism(1), engine.WithMultiplicity(1))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Acceptance != 1 {
			t.Fatalf("%s: merged estimate on a legal double star accepts %v, want 1", r.Name(), sum.Acceptance)
		}
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*deg*deg*8); got >= bound {
			t.Fatalf("%s: cold merged estimate allocates %d bytes, not under 64·deg² words (%d bytes): inner calls' scratch adds up", r.Name(), got, bound)
		}
	}
}

// batchedSpeedupFloor is the asserted Sequential/Batched wall-clock ratio.
// The E14/E15 benchgate targets claim ≥10x against the pre-batching
// baseline; executor-vs-executor on identical code the conservative floor
// is 2x, far enough below the measured multiple (~3x) to hold on noisy CI.
const batchedSpeedupFloor = 2.0

// TestBatchedSpeedupFloor is the benchmark-backed regression guard: it
// measures the same estimator workload under Sequential and Batched with
// testing.Benchmark and asserts the speedup floor, retrying to shrug off
// scheduler noise before declaring a regression.
func TestBatchedSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	const trials = 256
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		seq := testing.Benchmark(func(b *testing.B) {
			exec := engine.NewSequential()
			for i := 0; i < b.N; i++ {
				batchedWorkload(b, exec, trials)
			}
		})
		bat := testing.Benchmark(func(b *testing.B) {
			exec := engine.NewBatched()
			for i := 0; i < b.N; i++ {
				batchedWorkload(b, exec, trials)
			}
		})
		if ratio := float64(seq.NsPerOp()) / float64(bat.NsPerOp()); ratio > best {
			best = ratio
		}
		if best >= batchedSpeedupFloor {
			break
		}
	}
	if best < batchedSpeedupFloor {
		t.Fatalf("Sequential/Batched speedup %.2fx, want >= %.1fx", best, batchedSpeedupFloor)
	}
	t.Logf("Sequential/Batched speedup: %.2fx", best)
}
