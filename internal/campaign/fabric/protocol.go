package fabric

import (
	"encoding/json"

	"rpls/internal/campaign"
)

// Wire types of the lease protocol: JSON over HTTP, version-prefixed
// paths. The protocol is deliberately chatty-simple — every message is a
// small POST with a JSON body — because the expensive part of a campaign
// is executing cells, not talking about them.

// Protocol endpoints served by Coordinator.Handler.
const (
	PathLease     = "/v1/lease"
	PathReport    = "/v1/report"
	PathHeartbeat = "/v1/heartbeat"
	PathStatus    = "/v1/status"
)

// LeaseRequest asks the coordinator for the next contiguous cell range.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease is one granted range: plan-order todo indexes
// [Start, Start+len(Cells)). The cells travel in the grant so a worker
// needs no copy of the spec; campaign.Cell round-trips JSON exactly.
type Lease struct {
	ID    uint64          `json:"id"`
	Start int             `json:"start"`
	Cells []campaign.Cell `json:"cells"`
	// TTLMillis is how long the lease survives without a heartbeat or a
	// report; HeartbeatMillis is the interval the coordinator wants
	// workers to renew at (a fraction of the TTL).
	TTLMillis       int64 `json:"ttlMillis"`
	HeartbeatMillis int64 `json:"heartbeatMillis"`
}

// LeaseResponse carries a grant, a backpressure delay, or completion.
type LeaseResponse struct {
	// Done means the campaign is complete (or will be completed by cells
	// already leased out); the worker should exit.
	Done bool `json:"done,omitempty"`
	// Lease is nil when the lease window is full; RetryMillis then says
	// how long to wait before asking again.
	Lease       *Lease `json:"lease,omitempty"`
	RetryMillis int64  `json:"retryMillis,omitempty"`
}

// ReportRecord is one completed cell. Line holds the canonical
// results.jsonl bytes produced by campaign.MarshalRecord on the worker;
// the coordinator checks the record's cell against its plan and writes
// the bytes verbatim, which is what keeps a distributed run byte-identical
// to a single-process one.
type ReportRecord struct {
	Index int             `json:"index"` // plan-order todo index
	Line  json.RawMessage `json:"line"`
}

// ReportRequest streams completed cells back under a lease.
type ReportRequest struct {
	Worker  string         `json:"worker"`
	Lease   uint64         `json:"lease"`
	Records []ReportRecord `json:"records"`
}

// ReportResponse acknowledges a report. Stale means the lease was already
// reclaimed or released; any still-pending records were accepted anyway
// (the work is valid wherever it ran), but the worker should abandon the
// rest of the range and ask for a fresh lease.
type ReportResponse struct {
	OK    bool `json:"ok"`
	Stale bool `json:"stale,omitempty"`
}

// HeartbeatRequest renews every lease the named worker holds.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse reports how many leases were renewed.
type HeartbeatResponse struct {
	Leases int  `json:"leases"`
	Done   bool `json:"done,omitempty"`
}

// Status is the coordinator's read-only state snapshot (GET /v1/status).
type Status struct {
	Spec     string `json:"spec"`
	Cells    int    `json:"cells"`   // expanded plan size
	Skipped  int    `json:"skipped"` // complete before this coordinator started
	Todo     int    `json:"todo"`    // cells this coordinator must see executed
	Written  int    `json:"written"` // of Todo, durably appended so far
	Leased   int    `json:"leased"`  // live leases
	Workers  int    `json:"workers"` // distinct workers ever seen
	Reclaims uint64 `json:"reclaims"`
	Done     bool   `json:"done"`
}
