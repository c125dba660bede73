// Package fabric distributes a campaign across machines without giving up
// one byte of the campaign's determinism contract: a coordinator owns a
// campaign directory and leases contiguous ranges of the plan's remaining
// cells to workers over HTTP; workers execute the cells with the ordinary
// engine (campaign.RunCell) and stream each record back as it completes;
// and the coordinator funnels everything through the campaign Sink, whose
// reorder buffer writes results.jsonl in plan order — so the directory is
// byte-identical to a single-process `plscampaign run` for any worker
// count, any arrival order, and any crash pattern.
//
// The lease protocol (see DESIGN.md, "Distributed campaigns", for the
// full contract):
//
//   - Lease: POST /v1/lease grants the lowest contiguous run of unleased
//     cells, at most LeaseSize long, never reaching more than Window cells
//     past the write low-water mark. The window is the backpressure: it
//     bounds the coordinator's reorder buffer and the work lost to a
//     crash, and when it is full the response carries a retry delay
//     instead of a lease.
//   - Report: POST /v1/report delivers completed cells, each as its todo
//     index and the canonical results.jsonl line (campaign.MarshalRecord).
//     The coordinator checks that the line is the plan's cell at that
//     index and writes those bytes verbatim through the Sink. Reporting
//     renews the lease; the Sink drops duplicate indexes, so a reclaimed
//     lease's original owner racing the re-issue is harmless.
//   - Heartbeat: POST /v1/heartbeat renews every lease the worker holds.
//     A lease not renewed within its TTL — worker crash, stall, or
//     partition — is reclaimed: its unreported cells return to the pool
//     and are re-leased, which is safe because cells are pure functions
//     of their fields.
//   - Status: GET /v1/status is a read-only snapshot (plan size, written
//     low-water mark, live leases, reclaim count) for CI and dashboards.
//
// Crash recovery is layered on the same checkpoint as resume, the records
// in results.jsonl: the coordinator opens its directory through
// campaign.Prepare, so restarting a dead coordinator (or re-pointing one
// at a half-finished directory) skips every durably recorded cell and
// leases out only the rest.
//
// The package sits inside plsvet's deterministic zone (it is under
// internal/campaign/): ambient randomness, environment reads, and direct
// wall-clock calls are still forbidden. Lease deadlines are the one place
// that needs time, and they read it through the audited obs.Clock seam —
// timing decides only *scheduling* (which worker executes a cell, and
// when), never a record's bytes, and the Sink makes scheduling invisible
// in the output.
package fabric
