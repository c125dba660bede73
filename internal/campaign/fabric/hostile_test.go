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
	"testing"
	"time"

	"rpls/internal/campaign"
)

// The coordinator's handlers face workers it does not control: bodies may
// be malformed, oversized or replayed. These tests pin each defect found
// in them; FuzzCoordinator drives the handlers with fuzzer-chosen call
// sequences.

// honestRecords runs every cell of the spec's plan once, in plan order:
// the records an honest worker reports on a fresh directory.
func honestRecords(tb testing.TB, spec campaign.Spec) []ReportRecord {
	tb.Helper()
	plan, err := campaign.Expand(spec)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]ReportRecord, len(plan.Cells))
	for i, cell := range plan.Cells {
		rec := campaign.RunCell(cell)
		out[i] = ReportRecord{Index: i, Line: campaign.MarshalRecord(rec)}
	}
	return out
}

// serve posts body to path on the handler.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rr
}

// jsonString quotes s as a JSON string.
func jsonString(s string) string {
	q, _ := json.Marshal(s) // a string always marshals
	return string(q)
}

// reportBody frames a report with its record lines written verbatim, as a
// hostile worker can send them: json.Marshal would compact every line.
func reportBody(worker string, lease uint64, recs []ReportRecord) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"worker":%s,"lease":%d,"records":[`, jsonString(worker), lease)
	for i, r := range recs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"index":%d,"line":%s}`, r.Index, r.Line)
	}
	b.WriteString("]}")
	return b.Bytes()
}

// leaseOn asks the handler for a lease on the worker's behalf.
func leaseOn(t *testing.T, h http.Handler, worker string) LeaseResponse {
	t.Helper()
	body, _ := json.Marshal(LeaseRequest{Worker: worker}) // a LeaseRequest always marshals
	rr := serve(h, PathLease, body)
	var lr LeaseResponse
	if rr.Code != http.StatusOK {
		t.Fatalf("lease: %d %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &lr); err != nil {
		t.Fatalf("lease response: %v", err)
	}
	return lr
}

// reportOn reports one record under the lease.
func reportOn(t *testing.T, h http.Handler, worker string, lease uint64, rec ReportRecord) ReportResponse {
	t.Helper()
	rr := serve(h, PathReport, reportBody(worker, lease, []ReportRecord{rec}))
	var resp ReportResponse
	if rr.Code != http.StatusOK {
		t.Fatalf("report of cell %d: %d %s", rec.Index, rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("report response: %v", err)
	}
	return resp
}

// drive plays one honest worker at the protocol level, starting from the
// lease it already holds, until the coordinator reports the campaign
// done. It reports each cell sends(index) times, in order, and abandons a
// lease answered Stale, as Worker does. No other worker holds a lease, so
// a lease request answered with a retry means cells are stranded.
func drive(t *testing.T, c *Coordinator, held *Lease, recs []ReportRecord, sends func(index int) int) {
	t.Helper()
	h := c.Handler()
	for l := held; ; {
		for i := range l.Cells {
			rec := recs[l.Start+i]
			var resp ReportResponse
			for range sends(rec.Index) {
				resp = reportOn(t, h, "w", l.ID, rec)
			}
			if resp.Stale {
				break
			}
		}
		lr := leaseOn(t, h, "w")
		if lr.Done {
			return
		}
		if lr.Lease == nil {
			t.Fatalf("lease request answered with a retry at %d of %d cells written: cells stranded", c.Status().Written, len(recs))
		}
		l = lr.Lease
	}
}

// A worker whose report of cell 0 is replayed twice, and which then
// continues in order, must see its lease through. Replays used to count
// toward the lease's completion, so the lease was released two cells
// early, the worker's next report was answered Stale, and the cells it
// then abandoned stayed leased with no lease left to reclaim them.
func TestReplayedReportKeepsLease(t *testing.T) {
	spec := fabricSpec()
	solo := filepath.Join(t.TempDir(), "solo")
	soloRun(t, solo, spec)
	recs := honestRecords(t, spec)

	dir := filepath.Join(t.TempDir(), "fabric")
	c, err := NewCoordinator(dir, spec, Options{LeaseSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finish()
	lr := leaseOn(t, c.Handler(), "w")
	drive(t, c, lr.Lease, recs, func(index int) int {
		if index == 0 {
			return 3
		}
		return 1
	})
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, solo, dir)
}

// A record line that is not in compact form is answered 400. The Sink
// writes lines verbatim, so a pretty-printed record used to span several
// lines of results.jsonl, after which Finish, ReadRecords and any later
// run failed to parse the file.
func TestReportRejectsMultiLineRecord(t *testing.T) {
	spec := fabricSpec()
	solo := filepath.Join(t.TempDir(), "solo")
	soloRun(t, solo, spec)
	recs := honestRecords(t, spec)

	dir := filepath.Join(t.TempDir(), "fabric")
	c, err := NewCoordinator(dir, spec, Options{LeaseSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finish()
	lr := leaseOn(t, c.Handler(), "w")
	pretty := recs[lr.Lease.Start]
	var indented bytes.Buffer
	if err := json.Indent(&indented, pretty.Line, "", "  "); err != nil {
		t.Fatal(err)
	}
	pretty.Line = indented.Bytes()
	if rr := serve(c.Handler(), PathReport, reportBody("w", lr.Lease.ID, []ReportRecord{pretty})); rr.Code != http.StatusBadRequest {
		t.Fatalf("pretty-printed record answered %d, want 400", rr.Code)
	}
	drive(t, c, lr.Lease, recs, func(int) int { return 1 })
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, solo, dir)
}

// A record line must be a record of the plan's cell at its index. The
// Sink writes lines verbatim, so a line such as 123 or {} used to be
// written, after which Finish, ReadRecords and any later run failed to
// parse the file.
func TestReportRejectsNonRecordLine(t *testing.T) {
	spec := fabricSpec()
	solo := filepath.Join(t.TempDir(), "solo")
	soloRun(t, solo, spec)
	recs := honestRecords(t, spec)

	dir := filepath.Join(t.TempDir(), "fabric")
	c, err := NewCoordinator(dir, spec, Options{LeaseSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finish()
	lr := leaseOn(t, c.Handler(), "w")
	own := recs[lr.Lease.Start]
	other := recs[(lr.Lease.Start+1)%len(recs)].Line
	for _, line := range []string{`123`, `{}`, string(other)} {
		bad := own
		bad.Line = json.RawMessage(line)
		if rr := serve(c.Handler(), PathReport, reportBody("w", lr.Lease.ID, []ReportRecord{bad})); rr.Code != http.StatusBadRequest {
			t.Fatalf("line %.40s for cell %d answered %d, want 400", line, lr.Lease.Start, rr.Code)
		}
	}
	drive(t, c, lr.Lease, recs, func(int) int { return 1 })
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, solo, dir)
}

// A body over the 1 MiB limit is answered 400 on every endpoint, like any
// other bad body, and changes nothing.
func TestOversizedBodyRejected(t *testing.T) {
	c, err := NewCoordinator(t.TempDir(), fabricSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finish()
	huge, _ := json.Marshal(LeaseRequest{Worker: strings.Repeat("w", 1<<20)}) // a LeaseRequest always marshals
	for _, path := range []string{PathLease, PathReport, PathHeartbeat} {
		if rr := serve(c.Handler(), path, huge); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: %d-byte body answered %d, want 400", path, len(huge), rr.Code)
		}
	}
	if st := c.Status(); st.Leased != 0 || st.Written != 0 {
		t.Errorf("oversized bodies changed the coordinator: %+v", st)
	}
}

// Fuzz input opcodes: each op is a code byte and its operands, and a
// missing operand reads as 0.
//
//	opLease w           lease for worker f<w%2>
//	opHeartbeat w       heartbeat for worker f<w%2>
//	opReport l n r…     report n%4+1 records: l < 0x80 picks a granted
//	                    lease (any lease ID l&0x7F otherwise), and each
//	                    record byte r names index (r&0xF)%(N+2)−1, where
//	                    −1 and N are out of range, with flags r>>4: 1 the
//	                    next cell's honest line, 2 a dishonest compact
//	                    line, 4 the line pretty-printed
//	opReplay k          resend the k-th report body sent so far
//	opRaw p n b…        send the next n bytes as the body of endpoint p%3
const (
	opLease = iota
	opHeartbeat
	opReport
	opReplay
	opRaw
	numOps
)

// fuzzCalls drives the handler with the calls ops encode, checking that
// every body that does not decode, and every report that carries another
// cell's line, is answered 400. It reports whether every record line sent
// was an honest line, compact or not.
func fuzzCalls(t *testing.T, h http.Handler, recs []ReportRecord, ops []byte) (honest bool) {
	honest = true
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	var (
		leases []uint64
		sent   [][]byte
	)
	call := func(path string, body []byte, into any) *httptest.ResponseRecorder {
		rr := serve(h, path, body)
		if json.NewDecoder(bytes.NewReader(body)).Decode(into) != nil && rr.Code != http.StatusBadRequest {
			t.Fatalf("%s: undecodable body %q answered %d, want 400", path, body, rr.Code)
		}
		return rr
	}
	for len(ops) > 0 {
		switch next() % numOps {
		case opLease:
			body, _ := json.Marshal(LeaseRequest{Worker: fmt.Sprintf("f%d", next()%2)}) // always marshals
			var lr LeaseResponse
			if rr := call(PathLease, body, new(LeaseRequest)); json.Unmarshal(rr.Body.Bytes(), &lr) == nil && lr.Lease != nil {
				leases = append(leases, lr.Lease.ID)
			}
		case opHeartbeat:
			body, _ := json.Marshal(HeartbeatRequest{Worker: fmt.Sprintf("f%d", next()%2)}) // always marshals
			call(PathHeartbeat, body, new(HeartbeatRequest))
		case opReport:
			sel := next()
			lease := uint64(sel & 0x7F)
			if sel < 0x80 && len(leases) > 0 {
				lease = leases[int(sel)%len(leases)]
			}
			batch := make([]ReportRecord, int(next()%4)+1)
			wrongCell := false
			for k := range batch {
				r := next()
				idx := int(r&0xF)%(len(recs)+2) - 1
				rec := ReportRecord{Index: idx, Line: json.RawMessage(`{}`)}
				if idx >= 0 && idx < len(recs) {
					rec = recs[idx]
				}
				flags := r >> 4
				if flags&1 != 0 {
					rec.Line, wrongCell = recs[(idx+1)%len(recs)].Line, true
				}
				if flags&2 != 0 {
					rec.Line, honest = json.RawMessage(`{"cell":"forged"}`), false
				}
				if flags&4 != 0 {
					var pretty bytes.Buffer
					if json.Indent(&pretty, rec.Line, "", "  ") == nil {
						rec.Line = pretty.Bytes()
					}
				}
				batch[k] = rec
			}
			body := reportBody("f0", lease, batch)
			sent = append(sent, body)
			if rr := call(PathReport, body, new(ReportRequest)); wrongCell && rr.Code != http.StatusBadRequest {
				t.Fatalf("report %s carries another cell's line, answered %d, want 400", body, rr.Code)
			}
		case opReplay:
			if len(sent) > 0 {
				call(PathReport, sent[int(next())%len(sent)], new(ReportRequest))
			}
		case opRaw:
			p, n := next()%3, int(next())
			body := ops[:min(n, len(ops))]
			ops = ops[len(body):]
			switch p {
			case 0:
				call(PathLease, body, new(LeaseRequest))
			case 1:
				call(PathHeartbeat, body, new(HeartbeatRequest))
			default:
				honest = false // a raw report may carry any line
				call(PathReport, body, new(ReportRequest))
			}
		}
	}
	return honest
}

// FuzzCoordinator drives a coordinator over fabricSpec through its
// handlers with a fuzzer-chosen sequence of lease, heartbeat and report
// calls (see fuzzCalls), then lets one honest Worker finish the campaign.
// The oracle: no handler panics; a body that does not decode is answered
// 400; the honest worker finishes, so no cell is left stranded; the
// coordinator then finishes, so every line it wrote reads back as a
// record; and when every record line sent was honest, results.jsonl
// equals the single-process run's.
func FuzzCoordinator(f *testing.F) {
	spec := fabricSpec()
	recs := honestRecords(f, spec)
	solo := filepath.Join(f.TempDir(), "solo")
	if _, err := (&campaign.Runner{Dir: solo, Parallel: 1}).Run(spec); err != nil {
		f.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(solo, campaign.ResultsFile))
	if err != nil {
		f.Fatal(err)
	}

	// A lease; cell 0 reported, then replayed twice; cell 1 reported.
	f.Add([]byte{opLease, 0, opReport, 0, 0, 1, opReplay, 0, opReplay, 0, opReport, 0, 0, 2})
	// A lease; cell 0 reported with its line pretty-printed.
	f.Add([]byte{opLease, 0, opReport, 0, 0, 0x41})
	// Two leases; cell 5, of the second, reported under the first.
	f.Add([]byte{opLease, 0, opLease, 1, opReport, 0, 0, 6})
	// A lease; cell 0 reported with cell 1's honest line.
	f.Add([]byte{opLease, 0, opReport, 0, 0, 0x11})
	// Indexes −1 and N in one report, under a stale lease ID.
	f.Add([]byte{opLease, 0, opReport, 0x85, 1, 0, 9})
	// A truncated report body.
	truncated := []byte(`{"worker":"f0","lease":1,"records":[{"index":0,"ce`)
	f.Add(append([]byte{opLease, 0, opRaw, 2, byte(len(truncated))}, truncated...))
	// A lease; cell 0 reported with the line 123, which is no record.
	nonRecord := []byte(`{"worker":"f0","lease":1,"records":[{"index":0,"line":123}]}`)
	f.Add(append([]byte{opLease, 0, opRaw, 2, byte(len(nonRecord))}, nonRecord...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		c, err := NewCoordinator(dir, spec, Options{LeaseSize: 4, LeaseTTL: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Finish()
		honest := fuzzCalls(t, c.Handler(), recs, ops)

		srv := httptest.NewServer(c.Handler())
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := (&Worker{Coordinator: srv.URL, Name: "honest"}).Run(ctx); err != nil {
			t.Fatalf("honest worker: %v at %d of %d cells written", err, c.Status().Written, len(recs))
		}
		if _, err := c.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		if !honest {
			return
		}
		if got := readFile(t, filepath.Join(dir, campaign.ResultsFile)); !bytes.Equal(got, want) {
			t.Fatalf("results.jsonl differs from the single-process run:\n%s\nwant:\n%s", got, want)
		}
	})
}
