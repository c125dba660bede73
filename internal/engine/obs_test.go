package engine_test

import (
	"testing"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/graph"
	"rpls/internal/obs"
	"rpls/internal/prng"
	"rpls/internal/schemes/mst"
	"rpls/internal/schemes/uniform"
)

// The no-influence guarantee, dynamically enforced: running the estimator
// with the obs recorder on (metrics, histograms, spans all live) must
// produce golden Summary values identical to a metrics-off run, for every
// executor and parallelism level. The static half is plsvet's obsflow
// analyzer, which forbids engine code from reading telemetry back.

// obsWorkload is one full estimator run on the E15-style boosted-uniform
// workload plus a soundness fan-out, exercising the sequential, lane, and
// adversary instrumentation sites.
func obsWorkload(t testing.TB, exec engine.Executor, parallel int) engine.Summary {
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
		engine.WithTrials(96), engine.WithSeed(5),
		engine.WithExecutor(exec), engine.WithParallelism(parallel))
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// obsCompiledWorkload estimates the compiled MST scheme on honest labels
// from prepared nodes.
func obsCompiledWorkload(t testing.TB, exec engine.Executor, parallel int) engine.Summary {
	cfg, err := experiments.BuildMSTConfig(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	scheme := engine.FromRPLS(mst.NewRPLS())
	sum, err := engine.Estimate(scheme, cfg, engine.WithTrials(96), engine.WithSeed(5),
		engine.WithExecutor(exec), engine.WithParallelism(parallel))
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestSummaryUnchangedByMetrics(t *testing.T) {
	workloads := map[string]func(testing.TB, engine.Executor, int) engine.Summary{
		"boosted-uniform": obsWorkload,
		"compiled-mst":    obsCompiledWorkload,
	}
	execs := map[string]func() engine.Executor{
		"sequential": func() engine.Executor { return engine.NewSequential() },
		"batched":    func() engine.Executor { return engine.NewBatched() },
	}
	for wname, run := range workloads {
		for name, mk := range execs {
			for _, parallel := range []int{1, 4} {
				obs.SetEnabled(false)
				off := run(t, mk(), parallel)

				obs.Reset()
				obs.SetEnabled(true)
				on := run(t, mk(), parallel)
				snap := obs.TakeSnapshot()
				obs.SetEnabled(false)
				obs.Reset()

				if on != off {
					t.Errorf("%s/%s/parallel=%d: Summary with metrics on %+v != off %+v", wname, name, parallel, on, off)
				}
				// The run must actually have been recorded, or the comparison
				// proves nothing.
				if snap.Counter("engine.estimate.runs") == 0 || snap.Counter("engine.estimate.trials") == 0 {
					t.Errorf("%s/%s/parallel=%d: metrics-on run recorded nothing", wname, name, parallel)
				}
				if name == "batched" && snap.Counter("engine.batched.batches") == 0 {
					t.Errorf("%s: batched run recorded no batches", wname)
				}
				// Every estimate prepares its nodes once.
				prep, _ := snap.Histogram("engine.estimate.prepare")
				if prep.Count != snap.Counter("engine.estimate.runs") {
					t.Errorf("%s/%s/parallel=%d: %d prepared estimates recorded for %d estimates",
						wname, name, parallel, prep.Count, snap.Counter("engine.estimate.runs"))
				}
			}
		}
	}
}

// TestSoundnessUnchangedByMetrics covers the adversary fan-out sites.
func TestSoundnessUnchangedByMetrics(t *testing.T) {
	run := func() []engine.AdversaryResult {
		scheme := engine.FromRPLS(uniform.NewRPLS())
		legal := graph.NewConfig(graph.RandomTree(10, prng.New(4)))
		for v := range legal.States {
			legal.States[v].Data = []byte{0x42}
		}
		illegal := graph.NewConfig(graph.RandomTree(10, prng.New(4)))
		illegal.States[3].Data = []byte{0x43}
		advs, err := engine.Soundness(scheme, legal, illegal,
			engine.WithTrials(32), engine.WithSeed(11), engine.WithAssignments(4))
		if err != nil {
			t.Fatal(err)
		}
		return advs
	}
	obs.SetEnabled(false)
	off := run()
	obs.Reset()
	obs.SetEnabled(true)
	on := run()
	snap := obs.TakeSnapshot()
	obs.SetEnabled(false)
	obs.Reset()

	if len(on) != len(off) {
		t.Fatalf("adversary count changed: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Errorf("adversary %s: result with metrics on %+v != off %+v", on[i].Adversary, on[i], off[i])
		}
	}
	if snap.Counter("engine.soundness.runs") == 0 || snap.Counter("engine.soundness.assignments") == 0 {
		t.Error("metrics-on soundness run recorded nothing")
	}
}

// TestEstimateAllocParityWithMetrics is the hot-path half of the
// observability contract at estimator scale: a warm metrics-on estimate
// allocates no more than a metrics-off one — every Record call on the
// trial path is allocation-free (the per-call assertions live in
// internal/obs's TestRecordAllocs).
func TestEstimateAllocParityWithMetrics(t *testing.T) {
	exec := engine.NewBatched()
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	// The workload itself has ±1 run-to-run allocation jitter, so measure
	// both sides per attempt and retry before declaring a regression.
	var off, on float64
	for attempt := 0; attempt < 3; attempt++ {
		obs.SetEnabled(false)
		off = testing.AllocsPerRun(5, func() { obsWorkload(t, exec, 1) })
		obs.Reset()
		obs.SetEnabled(true)
		obsWorkload(t, exec, 1) // warm the trace ring
		on = testing.AllocsPerRun(5, func() { obsWorkload(t, exec, 1) })
		if on <= off {
			return
		}
	}
	t.Fatalf("metrics-on estimate allocates %v times vs %v off; recording must be allocation-free", on, off)
}
