package campaign

import (
	"bufio"
	"bytes"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"

	"rpls/internal/obs"
)

// The no-influence guarantee at campaign scale: a run with the obs
// recorder fully live (metrics, spans, progress gauges) writes
// results.jsonl, BENCH_campaign.json and BENCH_curves.json byte-identical
// to a metrics-off run, at any parallelism and with the batched executor
// on the axis.

func obsSpec() Spec {
	s := testSpec()
	s.Name = "obsunit"
	s.Executors = []string{"sequential", "batched"}
	return s
}

func TestGoldenResultsWithMetricsOn(t *testing.T) {
	spec := obsSpec()
	obs.SetEnabled(false)
	offDir := t.TempDir()
	runInto(t, spec, offDir, 1)
	offResults := readFile(t, filepath.Join(offDir, ResultsFile))

	for _, parallel := range []int{1, 4} {
		obs.Reset()
		obs.SetEnabled(true)
		onDir := t.TempDir()
		runInto(t, spec, onDir, parallel)
		snap := obs.TakeSnapshot()
		obs.SetEnabled(false)
		obs.Reset()

		if got := readFile(t, filepath.Join(onDir, ResultsFile)); !bytes.Equal(got, offResults) {
			t.Errorf("parallel=%d: results.jsonl differs between metrics on and off", parallel)
		}
		for _, name := range []string{BenchFile, BenchCurvesFile} {
			if got := readFile(t, filepath.Join(onDir, name)); !bytes.Equal(got, readFile(t, filepath.Join(offDir, name))) {
				t.Errorf("parallel=%d: %s differs between metrics on and off", parallel, name)
			}
		}
		// The comparison is vacuous unless the run actually recorded.
		if snap.Counter("campaign.cells.ok") == 0 {
			t.Errorf("parallel=%d: metrics-on run recorded no ok cells", parallel)
		}
		if hv, _ := snap.Histogram("campaign.cell"); hv.Count == 0 {
			t.Errorf("parallel=%d: no cell durations recorded", parallel)
		}
		if w, _ := snap.Gauge("campaign.workers"); w != int64(parallel) {
			t.Errorf("parallel=%d: workers gauge reads %d", parallel, w)
		}
	}
}

// phases extracts the phase= attribute sequence from a TextHandler stream,
// collapsing consecutive repeats (progress repeats per tick).
func phases(t *testing.T, out []byte) []string {
	t.Helper()
	var seq []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		i := strings.Index(line, "phase=")
		if i < 0 {
			t.Fatalf("log line without phase attribute: %q", line)
		}
		p := line[i+len("phase="):]
		if j := strings.IndexByte(p, ' '); j >= 0 {
			p = p[:j]
		}
		if len(seq) == 0 || seq[len(seq)-1] != p {
			seq = append(seq, p)
		}
	}
	return seq
}

// TestSchedulerPhaseSequence pins the structured progress contract the CI
// smoke greps: plan → execute → progress → aggregate → done on a fresh
// run, and plan → aggregate → done (no execute) on a completed resume.
func TestSchedulerPhaseSequence(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if _, err := (&Runner{Dir: dir, Parallel: 2, Logger: slog.New(slog.NewTextHandler(&out, nil))}).Run(obsSpec()); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(phases(t, out.Bytes()), " ")
	if got != "plan execute progress aggregate done" {
		t.Errorf("fresh run phase sequence %q, want plan execute progress aggregate done", got)
	}
	for _, attr := range []string{"cellsPerSec=", "etaMs=", "spec=obsunit"} {
		if !strings.Contains(out.String(), attr) {
			t.Errorf("progress stream missing %s attribute", attr)
		}
	}

	out.Reset()
	if _, err := (&Runner{Dir: dir, Parallel: 2, Logger: slog.New(slog.NewTextHandler(&out, nil))}).Run(obsSpec()); err != nil {
		t.Fatal(err)
	}
	got = strings.Join(phases(t, out.Bytes()), " ")
	if got != "plan aggregate done" {
		t.Errorf("resumed run phase sequence %q, want plan aggregate done", got)
	}
}

// TestRunnerLoggerResolution: a Runner without a Logger safely discards.
func TestRunnerLoggerResolution(t *testing.T) {
	(&Runner{}).logger().Info("campaign", "phase", "plan") // must not panic
}
