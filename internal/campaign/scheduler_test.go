package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func runInto(t *testing.T, spec Spec, dir string, parallel int) Report {
	t.Helper()
	rep, err := (&Runner{Dir: dir, Parallel: parallel}).Run(spec)
	if err != nil {
		t.Fatalf("run (parallel=%d): %v", parallel, err)
	}
	return rep
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The golden determinism contract: the same spec and seed yield
// byte-identical results.jsonl and BENCH_curves.json for every -parallel
// value.
func TestGoldenResultsAcrossParallelism(t *testing.T) {
	spec := testSpec()
	var golden, goldenCurves []byte
	for _, parallel := range []int{1, 4, 0} {
		dir := filepath.Join(t.TempDir(), "campaign")
		rep := runInto(t, spec, dir, parallel)
		if rep.Executed != rep.Cells || rep.Skipped != 0 {
			t.Fatalf("parallel=%d: fresh run executed %d of %d", parallel, rep.Executed, rep.Cells)
		}
		if rep.Errors != 0 {
			t.Fatalf("parallel=%d: %d error cells", parallel, rep.Errors)
		}
		if rep.OK == 0 {
			t.Fatalf("parallel=%d: no ok cells", parallel)
		}
		got := readFile(t, filepath.Join(dir, ResultsFile))
		curves := readFile(t, filepath.Join(dir, BenchCurvesFile))
		if golden == nil {
			golden, goldenCurves = got, curves
			continue
		}
		if !bytes.Equal(golden, got) {
			t.Fatalf("results.jsonl differs between parallel=1 and parallel=%d", parallel)
		}
		if !bytes.Equal(goldenCurves, curves) {
			t.Fatalf("%s differs between parallel=1 and parallel=%d", BenchCurvesFile, parallel)
		}
	}
}

// The resume contract: completed cells are skipped, never re-executed or
// re-written; growing the spec executes only the new cells.
func TestResumeSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	small := testSpec()
	small.Sizes = []int{8}
	rep1 := runInto(t, small, dir, 2)
	if rep1.Executed != rep1.Cells || rep1.Skipped != 0 {
		t.Fatalf("first run: %+v", rep1)
	}
	afterFirst := readFile(t, filepath.Join(dir, ResultsFile))

	// Identical re-run: everything skips, nothing is appended.
	rep2 := runInto(t, small, dir, 2)
	if rep2.Executed != 0 || rep2.Skipped != rep1.Cells {
		t.Fatalf("identical re-run executed %d, skipped %d (want 0, %d)", rep2.Executed, rep2.Skipped, rep1.Cells)
	}
	if got := readFile(t, filepath.Join(dir, ResultsFile)); !bytes.Equal(afterFirst, got) {
		t.Fatal("identical re-run modified results.jsonl")
	}

	// Grown spec (one more size): only the new cells execute, and the old
	// records survive untouched as the file's prefix.
	grown := testSpec() // sizes {8, 12}
	rep3 := runInto(t, grown, dir, 2)
	wantNew := rep3.Cells - rep1.Cells
	if rep3.Executed != wantNew || rep3.Skipped != rep1.Cells {
		t.Fatalf("grown run executed %d, skipped %d (want %d, %d)", rep3.Executed, rep3.Skipped, wantNew, rep1.Cells)
	}
	afterGrown := readFile(t, filepath.Join(dir, ResultsFile))
	if !bytes.HasPrefix(afterGrown, afterFirst) {
		t.Fatal("grown run rewrote earlier records")
	}
	recs, err := ReadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != rep3.Cells {
		t.Fatalf("results.jsonl holds %d records, want %d (no duplicates)", len(recs), rep3.Cells)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.Cell] {
			t.Fatalf("cell %q recorded twice", r.Cell)
		}
		seen[r.Cell] = true
	}
}

// Changing the measurement budget changes cell IDs, so nothing is silently
// skipped as "complete" under a different budget.
func TestBudgetChangeReexecutes(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.Sizes = []int{8}
	rep1 := runInto(t, spec, dir, 2)
	spec.Trials = 24
	rep2 := runInto(t, spec, dir, 2)
	if rep2.Executed != rep1.Cells || rep2.Skipped != 0 {
		t.Fatalf("after trials change: executed %d, skipped %d (want %d, 0)", rep2.Executed, rep2.Skipped, rep1.Cells)
	}
}

// A run killed mid results write must not leave duplicate or torn records
// after resume.
func TestResumeRepairsCrashWindow(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.Sizes = []int{8}
	rep := runInto(t, spec, dir, 2)

	results := filepath.Join(dir, ResultsFile)
	// Simulate the crash: tear the results tail with a half-written record.
	whole := readFile(t, results)
	if err := os.WriteFile(results, append(whole, []byte(`{"cell":"torn`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	rep2 := runInto(t, spec, dir, 2)
	if rep2.Executed != 0 || rep2.Skipped != rep.Cells {
		t.Fatalf("resume after crash window executed %d, skipped %d (want 0, %d)", rep2.Executed, rep2.Skipped, rep.Cells)
	}
	if got := readFile(t, results); !bytes.Equal(got, whole) {
		t.Fatal("resume did not restore a clean results stream")
	}
	recs, err := ReadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.Cell] {
			t.Fatalf("cell %q duplicated after crash resume", r.Cell)
		}
		seen[r.Cell] = true
	}
}

// A resumed campaign whose results hold error cells must not look green:
// prior errors are surfaced in the report even though deterministic cells
// are not retried.
func TestPriorErrorsSurfaceOnResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.Sizes = []int{8}
	runInto(t, spec, dir, 2)

	// Rewrite one completed cell's record as an error, as a failed earlier
	// run would have recorded it (the records drive the done-set).
	recs, err := ReadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs[0].Status = StatusError
	var data []byte
	for _, r := range recs {
		data = append(append(data, MarshalRecord(r)...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, ResultsFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := runInto(t, spec, dir, 2)
	if rep.PriorErrors == 0 {
		t.Fatalf("resume over an errored results stream reported no prior errors: %+v", rep)
	}
	if rep.Executed != 0 {
		t.Fatalf("deterministic error cells must not retry: %+v", rep)
	}
}

// Records measure what they claim: one-sided completeness on legal
// instances, low adversarial acceptance on soundness cells, and incompatible
// holes that are documented rather than silent.
func TestRecordSemantics(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	runInto(t, spec, dir, 4)
	recs, err := ReadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	var estimates, soundness, incompat int
	for _, r := range recs {
		switch {
		case r.Status == StatusIncompatible:
			incompat++
			if r.Reason == "" {
				t.Errorf("%s: incompatible without a reason", r.Cell)
			}
		case r.Status == StatusOK && r.Measure == MeasureEstimate:
			estimates++
			if r.Accepted != r.Trials {
				t.Errorf("%s: one-sided scheme accepted %d of %d honest trials", r.Cell, r.Accepted, r.Trials)
			}
			// Some randomized schemes have empty labels (certificates derive
			// from the state directly), so label bits are asserted only where
			// labels are the message.
			if r.Variant == VariantDet && r.LabelBits <= 0 {
				t.Errorf("%s: no label bits measured", r.Cell)
			}
			if r.Variant != VariantDet && r.CertBits <= 0 {
				t.Errorf("%s: randomized estimate with no certificate bits", r.Cell)
			}
		case r.Status == StatusOK && r.Measure == MeasureSoundness:
			soundness++
			if len(r.Adversaries) == 0 {
				t.Errorf("%s: soundness cell with no adversaries", r.Cell)
			}
			for _, a := range r.Adversaries {
				if a.Trials <= 0 {
					t.Errorf("%s: adversary %s ran no trials", r.Cell, a.Name)
				}
			}
		}
	}
	if estimates == 0 || soundness == 0 {
		t.Fatalf("campaign exercised %d estimates and %d soundness cells", estimates, soundness)
	}
	if incompat == 0 {
		t.Fatal("expected documented incompatible holes (acyclicity on the cyclic families)")
	}

	bench := readFile(t, filepath.Join(dir, BenchFile))
	if len(bench) == 0 {
		t.Fatal("BENCH_campaign.json is empty")
	}
	agg := Aggregate(spec.Name, recs)
	if agg.Records != len(recs) || agg.OK == 0 {
		t.Fatalf("aggregate %+v over %d records", agg, len(recs))
	}
	for scheme, g := range agg.BySchemes {
		if g.MeanAcceptance != 0 && (g.MeanAcceptance < 0.99 || g.MeanAcceptance > 1) {
			t.Errorf("scheme %s: mean honest acceptance %.3f, want ~1 (one-sided)", scheme, g.MeanAcceptance)
		}
	}
}
