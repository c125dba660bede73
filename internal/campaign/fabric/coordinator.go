package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"rpls/internal/campaign"
	"rpls/internal/obs"
)

// Options tunes a coordinator. The zero value selects the defaults.
type Options struct {
	// LeaseSize is the maximum cells per lease (default 8). Bigger leases
	// amortize protocol chatter; smaller ones lose less work to a crash.
	LeaseSize int
	// LeaseTTL is how long a lease survives without a heartbeat or report
	// before its unfinished cells are reclaimed (default 10s). Workers are
	// told to heartbeat at a third of it.
	LeaseTTL time.Duration
	// Window bounds how far past the write low-water mark cells may be
	// leased (default 4 leases' worth, floor one lease). It is the
	// backpressure knob: it caps the reorder buffer, so one stalled lease
	// can delay the stream but never balloon coordinator memory.
	Window int
	// Logger receives phase-attributed progress records (plan, execute,
	// lease, reclaim, progress, aggregate, done). Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.LeaseSize <= 0 {
		o.LeaseSize = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 4 * o.LeaseSize
	}
	if o.Window < o.LeaseSize {
		o.Window = o.LeaseSize
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Cell states in the coordinator's table, indexed by todo position.
const (
	cellFree   = uint8(iota) // not leased; eligible for the next grant
	cellLeased               // inside a live lease, not yet reported
	cellDone                 // delivered to the Sink (first record won)
)

// lease is one live grant over todo range [start, end). It is released
// once no cell of the range is still cellLeased.
type lease struct {
	id       uint64
	worker   string
	start    int
	end      int
	deadline obs.Time
	span     obs.Span // per-lease trace span, Tid = worker ordinal
}

// Coordinator owns a campaign directory and leases its remaining cells to
// workers. Construct with NewCoordinator, expose Handler over HTTP, then
// Wait and Finish. All protocol handling is event-driven: expiry reclaim
// runs on every lease/heartbeat/report, so liveness needs no background
// timer — an idle coordinator with expired leases reclaims them the
// moment any worker next asks for work.
type Coordinator struct {
	opts Options
	dir  string
	prep *campaign.Prepared
	sink *campaign.Sink

	mu       sync.Mutex
	rep      campaign.Report
	state    []uint8
	leases   map[uint64]*lease
	nextID   uint64
	workers  map[string]int // worker name → ordinal, for span Tids
	reclaims uint64
	doneOnce sync.Once
	doneCh   chan struct{}
	finished bool
}

// NewCoordinator reconciles the directory against the spec (exactly like
// a local run or resume: completed cells are skipped) and opens the Sink.
// Call Finish to release the directory even if no worker ever connects.
func NewCoordinator(dir string, spec campaign.Spec, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	prep, err := campaign.Prepare(dir, spec)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:    opts,
		dir:     dir,
		prep:    prep,
		rep:     prep.Report,
		state:   make([]uint8, len(prep.Todo)),
		leases:  map[uint64]*lease{},
		workers: map[string]int{},
		doneCh:  make(chan struct{}),
	}
	c.sink, err = campaign.NewSink(dir, prep.Todo, &c.rep)
	if err != nil {
		return nil, err
	}
	c.sink.SetProgress(campaign.ProgressFunc(opts.Logger, len(prep.Todo)))
	opts.Logger.Info("campaign", "phase", "plan", "spec", prep.Plan.Spec.Name,
		"cells", c.rep.Cells, "execute", c.rep.Executed, "skipped", c.rep.Skipped,
		"lease", opts.LeaseSize, "ttl", opts.LeaseTTL, "window", opts.Window)
	opts.Logger.Info("campaign", "phase", "execute", "cells", len(prep.Todo), "transport", "fabric")
	if len(prep.Todo) == 0 {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
	return c, nil
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathLease, c.handleLease)
	mux.HandleFunc("POST "+PathReport, c.handleReport)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("GET "+PathStatus, c.handleStatus)
	return mux
}

// Wait blocks until every remaining cell is durably written, or ctx ends.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done reports whether every remaining cell is durably written.
func (c *Coordinator) Done() bool {
	select {
	case <-c.doneCh:
		return true
	default:
		return false
	}
}

// Finish closes the Sink and rewrites the BENCH_*.json aggregates — the
// same tail a local run performs. Idempotent; call after Wait (or on
// abort, in which case the directory is left resumable).
func (c *Coordinator) Finish() (campaign.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return c.rep, nil
	}
	c.finished = true
	if err := c.sink.Close(); err != nil {
		return c.rep, err
	}
	if err := campaign.WriteAggregates(c.dir, c.prep.Plan.Spec.Name, c.opts.Logger); err != nil {
		return c.rep, err
	}
	c.opts.Logger.Info("campaign", "phase", "done", "spec", c.prep.Plan.Spec.Name, "report", c.rep.String())
	return c.rep, nil
}

// Status snapshots the coordinator's public state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Spec:     c.prep.Plan.Spec.Name,
		Cells:    c.rep.Cells,
		Skipped:  c.rep.Skipped,
		Todo:     len(c.prep.Todo),
		Written:  c.sink.Written(),
		Leased:   len(c.leases),
		Workers:  len(c.workers),
		Reclaims: c.reclaims,
		Done:     c.Done(),
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	writeJSON(w, c.grant(req.Worker))
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := c.accept(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	writeJSON(w, c.heartbeat(req.Worker))
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Status())
}

// grant reclaims expired leases, then hands out the lowest contiguous run
// of free cells inside the lease window.
func (c *Coordinator) grant(worker string) LeaseResponse {
	now := obs.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	if c.doneLocked() {
		return LeaseResponse{Done: true}
	}
	low := c.sink.Written()
	bound := low + c.opts.Window
	if bound > len(c.prep.Todo) {
		bound = len(c.prep.Todo)
	}
	start := -1
	for i := low; i < bound; i++ {
		if c.state[i] == cellFree {
			start = i
			break
		}
	}
	if start < 0 {
		// Window full (or everything in it already leased): backpressure.
		// The retry delay keeps idle workers polling, which is also what
		// drives reclaim while a lease is stalling the window.
		obsWindowFull.Inc()
		return LeaseResponse{RetryMillis: c.retryMillis()}
	}
	end := start
	for end < bound && end-start < c.opts.LeaseSize && c.state[end] == cellFree {
		end++
	}
	c.nextID++
	l := &lease{
		id:       c.nextID,
		worker:   worker,
		start:    start,
		end:      end,
		deadline: now + obs.Time(c.opts.LeaseTTL),
	}
	sp := obs.Begin("fabric.lease")
	sp.Tid = int64(c.workerOrdinalLocked(worker))
	sp.A, sp.B = int64(start), int64(end-start)
	l.span = sp
	for i := start; i < end; i++ {
		c.state[i] = cellLeased
	}
	c.leases[l.id] = l
	obsLeaseGrants.Inc()
	obsLeaseCells.Add(uint64(end - start))
	obsLeasesActive.Set(int64(len(c.leases)))
	c.opts.Logger.Info("campaign", "phase", "lease", "worker", worker,
		"lease", l.id, "start", start, "cells", end-start)
	cells := make([]campaign.Cell, end-start)
	copy(cells, c.prep.Todo[start:end])
	return LeaseResponse{Lease: &Lease{
		ID:              l.id,
		Start:           start,
		Cells:           cells,
		TTLMillis:       c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMillis: (c.opts.LeaseTTL / 3).Milliseconds(),
	}}
}

// accept validates and delivers reported records. Records for cells that
// are already done (a reclaimed lease's original owner racing its
// replacement, or a replayed report) are counted and dropped; everything
// else flows through the Sink, which writes in plan order. A record's line
// must be a campaign.Record of the plan's cell at its index, in exactly
// the form MarshalRecord writes: the Sink writes it verbatim as one line
// of results.jsonl, which ReadRecords must read back.
func (c *Coordinator) accept(req ReportRequest) (ReportResponse, error) {
	now := obs.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	l, live := c.leases[req.Lease]
	for _, rec := range req.Records {
		if rec.Index < 0 || rec.Index >= len(c.prep.Todo) {
			return ReportResponse{}, fmt.Errorf("fabric: record index %d out of range [0, %d)", rec.Index, len(c.prep.Todo))
		}
		var line campaign.Record
		if err := json.Unmarshal(rec.Line, &line); err != nil || !bytes.Equal(campaign.MarshalRecord(line), rec.Line) {
			return ReportResponse{}, fmt.Errorf("fabric: record %d line is not a record in MarshalRecord's form", rec.Index)
		}
		if id := c.prep.Todo[rec.Index].ID(); line.Cell != id {
			return ReportResponse{}, fmt.Errorf("fabric: record %d line is cell %q, plan has %q", rec.Index, line.Cell, id)
		}
		if c.state[rec.Index] == cellDone {
			obsDuplicates.Inc()
			continue
		}
		if err := c.sink.Put(rec.Index, rec.Line, line.Status); err != nil {
			return ReportResponse{}, err
		}
		c.state[rec.Index] = cellDone
		obsRecords.Inc()
	}
	if live {
		l.deadline = now + obs.Time(c.opts.LeaseTTL) // a report renews like a heartbeat
		if !slices.Contains(c.state[l.start:l.end], cellLeased) {
			c.releaseLocked(l)
		}
	}
	c.checkDoneLocked()
	return ReportResponse{OK: true, Stale: !live}, nil
}

// heartbeat renews every lease the worker holds.
func (c *Coordinator) heartbeat(worker string) HeartbeatResponse {
	now := obs.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	n := 0
	for _, l := range c.leases {
		if l.worker == worker {
			l.deadline = now + obs.Time(c.opts.LeaseTTL)
			n++
		}
	}
	obsHeartbeats.Inc()
	return HeartbeatResponse{Leases: n, Done: c.doneLocked()}
}

// reclaimExpiredLocked returns the unfinished cells of every expired
// lease to the free pool so they can be re-leased.
func (c *Coordinator) reclaimExpiredLocked(now obs.Time) {
	if len(c.leases) == 0 {
		return
	}
	var expired []uint64
	for id, l := range c.leases {
		if l.deadline < now {
			expired = append(expired, id)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, id := range expired {
		l := c.leases[id]
		freed := 0
		for i := l.start; i < l.end; i++ {
			if c.state[i] == cellLeased {
				c.state[i] = cellFree
				freed++
			}
		}
		c.reclaims++
		obsReclaims.Inc()
		c.releaseLocked(l)
		c.opts.Logger.Info("campaign", "phase", "reclaim", "worker", l.worker,
			"lease", id, "freed", freed)
	}
}

// releaseLocked retires a lease (completed or reclaimed).
func (c *Coordinator) releaseLocked(l *lease) {
	delete(c.leases, l.id)
	obs.End(l.span)
	obsLeasesActive.Set(int64(len(c.leases)))
}

func (c *Coordinator) doneLocked() bool {
	return c.sink.Written() == len(c.prep.Todo)
}

// checkDoneLocked closes the done channel the moment the last todo cell
// is durably written.
func (c *Coordinator) checkDoneLocked() {
	if c.doneLocked() {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
}

// workerOrdinalLocked assigns each distinct worker name a stable small
// integer, used as the trace Tid so per-worker lease spans line up.
func (c *Coordinator) workerOrdinalLocked(worker string) int {
	if ord, ok := c.workers[worker]; ok {
		return ord
	}
	ord := len(c.workers)
	c.workers[worker] = ord
	obsWorkersSeen.Set(int64(len(c.workers)))
	return ord
}

// retryMillis is the backpressure delay handed out when the window is
// full: a quarter TTL, floored so sub-second test TTLs do not turn
// workers into busy-loops.
func (c *Coordinator) retryMillis() int64 {
	ms := c.opts.LeaseTTL.Milliseconds() / 4
	if ms < 10 {
		ms = 10
	}
	return ms
}

// maxBodyBytes bounds a request body. An honest body is far smaller: a
// report carries one record line (under 600 bytes on the smoke campaign).
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes,
// replying 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("fabric: bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
