package engine

// batchPlaneBudget bounds the certificate plane to lanes × slots entries,
// so huge graphs narrow the batch instead of exploding memory. Lane width
// is invisible in results: outcomes are per trial, so any chunking of the
// trial range produces the same Summary.
const batchPlaneBudget = 1 << 21

// Batched is the lane loop up to 64 lanes wide, for Monte-Carlo
// throughput: Estimate hands it whole trial chunks, and one traversal of
// the configuration runs up to 64 of them, so a node's per-call work —
// the certificate slabs, a shared polynomial's evaluation table — is
// amortized across the lanes. Every scheme shape takes the same loop as
// Sequential, and votes and Stats are bit-identical to Sequential's for
// every trial at any lane width.
type Batched struct{ kernel }

// NewBatched returns a batched executor with empty scratch.
func NewBatched() *Batched { return &Batched{} }

// Name implements Executor.
func (e *Batched) Name() string { return "batched" }

// Clone implements Executor: a fresh batched executor with empty scratch.
func (e *Batched) Clone() Executor { return NewBatched() }

func (e *Batched) lanes() (*kernel, int) { return &e.kernel, 64 }

// laneWidth returns the widest batch the plane budget allows for a graph
// with the given slot count.
func laneWidth(slots int) int {
	if slots == 0 {
		return 64
	}
	return min(max(batchPlaneBudget/slots, 1), 64)
}
