package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/prng"
	"rpls/internal/schemes/mst"
)

// Every input a run uses comes from its seed: building them twice from one
// seed gives identical graphs, labels, adversary label sets and campaign
// specs, and another seed gives other inputs. (The uniform scheme's labels
// are empty for every seed.)
func TestSeededInputsRepeat(t *testing.T) {
	gen := func(seed uint64) []any {
		est, err := setupMSTEstimate(seed, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		uni, err := setupUniformBatched(seed, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		snd, err := setupMSTSoundness(seed, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		s := snd.(*mstSoundness)
		honest, err := s.scheme.Label(s.legal)
		if err != nil {
			t.Fatal(err)
		}
		random, bitflip := adversarySets(nil, seed, honest, s.illegal.G.N())
		spec, err := smokeSpecFor(seed)
		if err != nil {
			t.Fatal(err)
		}
		e, u := est.(*mstEstimate), uni.(*uniformBatched)
		return []any{e.cfg, e.labels, u.cfg, s.legal, s.illegal, random, bitflip, spec}
	}
	a, b, other := gen(7), gen(7), gen(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two generations from seed 7", i)
		}
		if reflect.DeepEqual(a[i], other[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

// The MST workloads build an instance of one size from every seed: the
// same κ and the same longest compiled label. Most of seeds 0–39 give
// BuildMSTConfig instances of other sizes, so the redraw is exercised.
func TestMSTInstanceSizeIsSeedFree(t *testing.T) {
	pick := mstSeed(mstEstimateN)
	compiled := engine.FromRPLS(mst.NewRPLS())
	var first [2]int
	for seed := uint64(0); seed < 40; seed++ {
		s, err := pick(seed)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := pick(seed); err != nil || again != s {
			t.Fatalf("seed %d picked %d, then %d (%v)", seed, s, again, err)
		}
		cfg, err := experiments.BuildMSTConfig(mstEstimateN, s)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := mst.NewPLS().Label(cfg)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := compiled.Label(cfg)
		if err != nil {
			t.Fatal(err)
		}
		size := [2]int{core.MaxBits(inner), core.MaxBits(labels)}
		if seed == 0 {
			first = size
		} else if size != first {
			t.Errorf("seed %d (instance seed %d): κ and longest label %v, seed 0 gave %v", seed, s, size, first)
		}
	}
	if s, err := pick(1006); err != nil || s != 1006 {
		t.Errorf("seed 1006 picked %d (%v); its own instance already fits", s, err)
	}
}

// flipSecond feeds a bit-flipped copy of the honest labels to the second
// mst-estimate op and the honest labels to every other op.
type flipSecond struct {
	*mstEstimate
	ops int
}

func (f *flipSecond) op(tr *Tracer) (opResult, time.Duration, error) {
	f.ops++
	if f.ops != 2 {
		return f.mstEstimate.op(tr)
	}
	honest := f.labels
	defer func() { f.labels = honest }()
	f.labels = engine.BitFlippedLabels(prng.New(1), honest)
	return f.mstEstimate.op(tr)
}

func TestBitFlippedOpCountsAsFailed(t *testing.T) {
	b, err := setupMSTEstimate(1, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	r := runner{w: workloads[0], opRef: newYardstick(1), log: io.Discard}
	defer r.stop()
	var ph phase
	if err := r.loop(&flipSecond{mstEstimate: b.(*mstEstimate)}, func(i int) bool { return i < 4 }, nil, &ph, 1); err != nil {
		t.Fatal(err)
	}
	if ph.attempted != 4 || ph.failed != 1 || len(ph.ops) != 3 {
		t.Errorf("attempted %d, failed %d, measured %d; want 4 attempted, 1 failed, 3 measured",
			ph.attempted, ph.failed, len(ph.ops))
	}
	if ph.exact.CertBits != core.CompiledCertBits(b.(*mstEstimate).kappa) {
		t.Errorf("exact counts %+v come from the flipped op", ph.exact)
	}
}

// BENCHMARK.json and the program declare the same metrics.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, names) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", declared, names)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if g := got[i]; g.Name != want[i].name || g.Unit != want[i].unit || g.Better != want[i].better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, g, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}
