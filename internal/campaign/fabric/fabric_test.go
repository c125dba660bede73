package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rpls/internal/campaign"
)

// fabricSpec is a small, fast plan: 4 scheme variants × 2 families ×
// 1 size × 1 seed × 1 measure = 8 cells.
func fabricSpec() campaign.Spec {
	return campaign.Spec{
		Name:     "fabric-unit",
		Schemes:  []campaign.SchemeAxis{{Name: "spanningtree"}, {Name: "acyclicity"}},
		Families: []campaign.FamilyAxis{{Name: "grid"}, {Name: campaign.CatalogFamily}},
		Sizes:    []int{8},
		Seeds:    []uint64{3},
		Measures: []string{campaign.MeasureEstimate},
		Trials:   8,
	}
}

func soloRun(t *testing.T, dir string, spec campaign.Spec) campaign.Report {
	t.Helper()
	rep, err := (&campaign.Runner{Dir: dir, Parallel: 2}).Run(spec)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	return rep
}

// runFabric drives a full coordinator+workers campaign over loopback HTTP
// and returns the finished report.
func runFabric(t *testing.T, dir string, spec campaign.Spec, workers, parallel int, opts Options) campaign.Report {
	t.Helper()
	c, err := NewCoordinator(dir, spec, opts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w := &Worker{Coordinator: srv.URL, Name: fmt.Sprintf("w%d", i), Parallel: parallel}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errCh <- w.Run(ctx)
		}()
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("coordinator wait: %v", err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	rep, err := c.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
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

// compareDirs asserts the files a distributed run must reproduce exactly.
func compareDirs(t *testing.T, want, got string) {
	t.Helper()
	for _, name := range []string{campaign.ResultsFile, campaign.BenchFile, campaign.BenchCurvesFile} {
		w := readFile(t, filepath.Join(want, name))
		g := readFile(t, filepath.Join(got, name))
		if !bytes.Equal(w, g) {
			t.Errorf("%s differs from single-process run (%d vs %d bytes)", name, len(w), len(g))
		}
	}
}

func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	if err := post(context.Background(), http.DefaultClient, url, in, out); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
}

// The core contract: a fabric run — any worker count — produces the same
// bytes as a single-process `plscampaign run`.
func TestFabricMatchesSingleProcess(t *testing.T) {
	spec := fabricSpec()
	solo := filepath.Join(t.TempDir(), "solo")
	soloRep := soloRun(t, solo, spec)

	for _, workers := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("fabric-%d", workers))
		rep := runFabric(t, dir, spec, workers, 2, Options{LeaseSize: 2})
		if rep.Executed != soloRep.Cells || rep.Skipped != 0 {
			t.Fatalf("workers=%d: executed %d of %d, skipped %d", workers, rep.Executed, soloRep.Cells, rep.Skipped)
		}
		if rep.String() != soloRep.String() {
			t.Errorf("workers=%d: report %q, solo %q", workers, rep.String(), soloRep.String())
		}
		compareDirs(t, solo, dir)
	}
}

// S3: a worker that takes a lease and stalls forever. Its lease must
// expire, be reclaimed, and be re-issued to a live worker — and the
// output must still match a single-process run byte for byte.
func TestStalledWorkerLeaseReclaim(t *testing.T) {
	spec := fabricSpec()
	solo := filepath.Join(t.TempDir(), "solo")
	soloRun(t, solo, spec)

	dir := filepath.Join(t.TempDir(), "fabric")
	opts := Options{LeaseSize: 4, LeaseTTL: 200 * time.Millisecond}
	c, err := NewCoordinator(dir, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The staller grabs the first lease and never reports or heartbeats.
	var stalled LeaseResponse
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "staller"}, &stalled)
	if stalled.Lease == nil {
		t.Fatalf("staller got no lease: %+v", stalled)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := &Worker{Coordinator: srv.URL, Name: "live", Parallel: 2}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	if err := c.Wait(ctx); err != nil {
		t.Fatalf("campaign did not converge past the stalled lease: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("live worker: %v", err)
	}
	st := c.Status()
	if st.Reclaims < 1 {
		t.Errorf("reclaims = %d, want >= 1", st.Reclaims)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, solo, dir)
}

// S3: a worker killed mid-range — it reports half its lease, then
// vanishes. The remainder is reclaimed and finished elsewhere; a replay
// of the dead worker's report is answered Stale and changes nothing.
func TestKilledWorkerMidRange(t *testing.T) {
	spec := fabricSpec()
	solo := filepath.Join(t.TempDir(), "solo")
	soloRun(t, solo, spec)

	dir := filepath.Join(t.TempDir(), "fabric")
	opts := Options{LeaseSize: 4, LeaseTTL: 200 * time.Millisecond}
	c, err := NewCoordinator(dir, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The ghost executes and reports the first half of its lease at the
	// protocol level, then disappears without heartbeating.
	var lr LeaseResponse
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "ghost"}, &lr)
	if lr.Lease == nil || len(lr.Lease.Cells) < 2 {
		t.Fatalf("ghost lease: %+v", lr)
	}
	half := len(lr.Lease.Cells) / 2
	var replay ReportRequest
	for i := 0; i < half; i++ {
		cell := lr.Lease.Cells[i]
		rec := campaign.RunCell(cell)
		req := ReportRequest{
			Worker: "ghost",
			Lease:  lr.Lease.ID,
			Records: []ReportRecord{{
				Index: lr.Lease.Start + i,
				Line:  campaign.MarshalRecord(rec),
			}},
		}
		var rr ReportResponse
		postJSON(t, srv.URL+PathReport, req, &rr)
		if !rr.OK || rr.Stale {
			t.Fatalf("ghost report %d: %+v", i, rr)
		}
		replay = req
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := &Worker{Coordinator: srv.URL, Name: "live", Parallel: 2}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("campaign did not converge past the dead worker: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("live worker: %v", err)
	}

	// Replay the ghost's last report after completion: the lease is long
	// gone, so the answer is Stale, and the record is a no-op duplicate.
	var rr ReportResponse
	postJSON(t, srv.URL+PathReport, replay, &rr)
	if !rr.OK || !rr.Stale {
		t.Errorf("replayed report: %+v, want OK and Stale", rr)
	}

	st := c.Status()
	if st.Reclaims < 1 {
		t.Errorf("reclaims = %d, want >= 1", st.Reclaims)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, solo, dir)
	// No duplicate records: exactly one line per cell.
	lines := strings.Count(string(readFile(t, filepath.Join(dir, campaign.ResultsFile))), "\n")
	if lines != st.Cells {
		t.Errorf("results.jsonl has %d lines, want %d", lines, st.Cells)
	}
}

// The resume contract carries over: a coordinator pointed at a directory
// holding a completed smaller run executes only the new cells, and the
// result matches a single-process run resumed through the same sequence
// (small run, then grown spec).
func TestCoordinatorResume(t *testing.T) {
	small := fabricSpec()
	grown := fabricSpec()
	grown.Sizes = []int{8, 12}

	soloGrown := filepath.Join(t.TempDir(), "solo-grown")
	soloRun(t, soloGrown, small)
	soloRun(t, soloGrown, grown)

	dir := filepath.Join(t.TempDir(), "fabric")
	smallRep := soloRun(t, dir, small)

	rep := runFabric(t, dir, grown, 2, 2, Options{LeaseSize: 2})
	if rep.Skipped != smallRep.Cells {
		t.Errorf("skipped %d, want %d (the prior run)", rep.Skipped, smallRep.Cells)
	}
	if rep.Executed != rep.Cells-smallRep.Cells {
		t.Errorf("executed %d, want %d (only the new cells)", rep.Executed, rep.Cells-smallRep.Cells)
	}
	compareDirs(t, soloGrown, dir)
}

// Backpressure: with Window cells outstanding and unreported, the
// coordinator must refuse further leases and hand out a retry delay.
func TestLeaseWindowBounds(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCoordinator(dir, fabricSpec(), Options{LeaseSize: 2, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finish()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	for i := 0; i < 2; i++ {
		var lr LeaseResponse
		postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "hog"}, &lr)
		if lr.Lease == nil || len(lr.Lease.Cells) != 2 {
			t.Fatalf("grant %d: %+v", i, lr)
		}
	}
	var lr LeaseResponse
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "hog"}, &lr)
	if lr.Lease != nil || lr.Done {
		t.Fatalf("window-full grant: %+v, want retry", lr)
	}
	if lr.RetryMillis <= 0 {
		t.Errorf("RetryMillis = %d, want > 0", lr.RetryMillis)
	}

	// Status reflects the two live leases and the unwritten stream.
	st := c.Status()
	if st.Leased != 2 || st.Written != 0 || st.Done {
		t.Errorf("status = %+v", st)
	}
}

// Malformed reports are rejected without corrupting state.
func TestReportValidation(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCoordinator(dir, fabricSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finish()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var lr LeaseResponse
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "w"}, &lr)
	if lr.Lease == nil {
		t.Fatal("no lease")
	}
	// The last report carries the honest record of the lease's second cell
	// at the first cell's index.
	other := campaign.MarshalRecord(campaign.RunCell(lr.Lease.Cells[1]))
	bad := []ReportRequest{
		{Worker: "w", Lease: lr.Lease.ID, Records: []ReportRecord{{Index: -1, Line: json.RawMessage(`{}`)}}},
		{Worker: "w", Lease: lr.Lease.ID, Records: []ReportRecord{{Index: 10 << 20, Line: json.RawMessage(`{}`)}}},
		{Worker: "w", Lease: lr.Lease.ID, Records: []ReportRecord{{Index: lr.Lease.Start, Line: other}}},
	}
	for i, req := range bad {
		var rr ReportResponse
		err := post(context.Background(), http.DefaultClient, srv.URL+PathReport, req, &rr)
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("bad report %d: err = %v, want 400", i, err)
		}
	}
	if st := c.Status(); st.Written != 0 {
		t.Errorf("bad reports advanced the stream: %+v", st)
	}
}
