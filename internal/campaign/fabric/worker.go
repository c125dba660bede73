package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"rpls/internal/campaign"
	"rpls/internal/obs"
)

// Worker pulls leases from a coordinator and executes them with the
// ordinary campaign engine. It is stateless: everything it needs travels
// in the lease, and everything it produces is streamed back one record at
// a time, so killing a worker at any instant loses at most the cell it
// was executing — which the coordinator reclaims and re-issues.
type Worker struct {
	// Coordinator is the base URL, e.g. "http://127.0.0.1:8799".
	Coordinator string
	// Name identifies this worker in leases, logs, and trace spans.
	Name string
	// Parallel is the number of concurrent lease loops (default 1). Each
	// loop identifies itself as Name-i so its leases are tracked apart.
	Parallel int
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Logger receives per-lease progress records. Nil discards.
	Logger *slog.Logger
}

// maxConsecutiveFailures is how many protocol errors in a row a lease
// loop tolerates (coordinator restarting, transient network) before it
// gives up and reports the last error.
const maxConsecutiveFailures = 5

// Run executes leases until the coordinator reports the campaign done,
// the context ends, or the coordinator stays unreachable.
func (w *Worker) Run(ctx context.Context) error {
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	log := w.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	parallel := w.Parallel
	if parallel <= 0 {
		parallel = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < parallel; i++ {
		name := w.Name
		if parallel > 1 {
			name = fmt.Sprintf("%s-%d", w.Name, i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.loop(ctx, client, log, name); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// loop is one lease-execute-report cycle, repeated until done.
func (w *Worker) loop(ctx context.Context, client *http.Client, log *slog.Logger, name string) error {
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp LeaseResponse
		if err := post(ctx, client, w.Coordinator+PathLease, LeaseRequest{Worker: name}, &resp); err != nil {
			failures++
			if failures >= maxConsecutiveFailures {
				return fmt.Errorf("fabric: worker %s: coordinator unreachable: %w", name, err)
			}
			if err := sleepCtx(ctx, 200*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		failures = 0
		switch {
		case resp.Done:
			log.Info("campaign", "phase", "worker", "worker", name, "event", "done")
			return nil
		case resp.Lease == nil:
			// Window full: back off for the delay the coordinator chose.
			if err := sleepCtx(ctx, time.Duration(resp.RetryMillis)*time.Millisecond); err != nil {
				return err
			}
		default:
			if err := w.executeLease(ctx, client, log, name, resp.Lease); err != nil {
				return err
			}
		}
	}
}

// executeLease runs the leased cells in order, reporting each record as
// it completes and heartbeating in the background at the interval the
// coordinator asked for.
func (w *Worker) executeLease(ctx context.Context, client *http.Client, log *slog.Logger, name string, l *Lease) error {
	log.Info("campaign", "phase", "worker", "worker", name,
		"lease", l.ID, "start", l.Start, "cells", len(l.Cells))

	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		interval := time.Duration(l.HeartbeatMillis) * time.Millisecond
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				var hb HeartbeatResponse
				// Failures are deliberately ignored: a missed heartbeat at
				// worst lets the lease expire, and reclaim makes that safe.
				_ = post(hbCtx, client, w.Coordinator+PathHeartbeat, HeartbeatRequest{Worker: name}, &hb)
			}
		}
	}()
	defer func() {
		stopHB()
		hbWG.Wait()
	}()

	for i, cell := range l.Cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := obs.Begin("fabric.cell")
		sp.A = int64(l.Start + i)
		t0 := obs.Clock()
		rec := campaign.RunCell(cell)
		obsWorkerCellNanos.Observe(int64(obs.Since(t0)))
		obs.End(sp)

		req := ReportRequest{
			Worker: name,
			Lease:  l.ID,
			Records: []ReportRecord{{
				Index: l.Start + i,
				Line:  campaign.MarshalRecord(rec),
			}},
		}
		var rr ReportResponse
		if err := post(ctx, client, w.Coordinator+PathReport, req, &rr); err != nil {
			return fmt.Errorf("fabric: worker %s: report lease %d: %w", name, l.ID, err)
		}
		if rr.Stale {
			// The lease was reclaimed out from under us; the record we just
			// sent was still accepted if it was first, but the rest of the
			// range now belongs to someone else.
			log.Info("campaign", "phase", "worker", "worker", name,
				"lease", l.ID, "event", "stale")
			return nil
		}
	}
	return nil
}

// post sends a JSON request and decodes a JSON response. Non-2xx is an
// error carrying a bounded slice of the body.
func post(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx waits for d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		d = 10 * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
