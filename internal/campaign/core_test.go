package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// results.jsonl is the checkpoint: a record lost from its tail (a crash
// before the write reached the disk) re-executes on resume, even when a
// manifest.jsonl written before the results stream became the only
// checkpoint still lists its cell as complete.
func TestLostRecordReexecutes(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.Sizes = []int{8}
	rep := runInto(t, spec, dir, 2)
	results := filepath.Join(dir, ResultsFile)
	whole := readFile(t, results)

	recs, err := ReadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	var manifest []byte
	for _, r := range recs {
		line, err := json.Marshal(struct {
			Cell   string `json:"cell"`
			Status string `json:"status"`
		}{r.Cell, r.Status})
		if err != nil {
			t.Fatal(err)
		}
		manifest = append(append(manifest, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	body := bytes.TrimSuffix(whole, []byte("\n"))
	if err := os.WriteFile(results, whole[:bytes.LastIndexByte(body, '\n')+1], 0o644); err != nil {
		t.Fatal(err)
	}

	rep2 := runInto(t, spec, dir, 2)
	if rep2.Executed != 1 || rep2.Skipped != rep.Cells-1 {
		t.Fatalf("resume after a lost record executed %d, skipped %d (want 1, %d)", rep2.Executed, rep2.Skipped, rep.Cells-1)
	}
	if got := readFile(t, results); !bytes.Equal(got, whole) {
		t.Fatal("resume did not restore the lost record")
	}
}

// S2: the per-axis breakdown must multiply out to exactly the expanded
// plan size, variants included.
func TestPlanBreakdown(t *testing.T) {
	plan, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Breakdown()
	if b.Cells != len(plan.Cells) {
		t.Fatalf("breakdown cells = %d, plan has %d", b.Cells, len(plan.Cells))
	}
	product := b.SchemeVariants * b.Families * b.Sizes * b.Seeds * b.Executors * b.Measures
	if product != b.Cells {
		t.Errorf("axis product %d != cells %d (%+v)", product, b.Cells, b)
	}
	// testSpec: spanningtree det+rand, coloring rand, acyclicity det+rand.
	if b.SchemeVariants != 5 || b.Families != 3 || b.Sizes != 2 {
		t.Errorf("breakdown = %+v", b)
	}
	s := b.String()
	if !strings.Contains(s, "scheme-variants") || !strings.Contains(s, "= 60 cells") {
		t.Errorf("breakdown string = %q", s)
	}
}
