package field

import (
	"sync"

	"rpls/internal/bitstring"
)

// maxTablePrime bounds the fields worth tabulating: past it the table build
// (p Horner walks) would dwarf any realistic lookup count. The schemes that
// share one polynomial across every node pick p = Θ(λ) per Lemma A.1, far
// below this.
const maxTablePrime = 1 << 12

// minTableBatch is the evaluation-batch size below which the cache skips
// the table: the per-call fixed costs (matching, locking) beat a handful
// of direct Horner walks.
const minTableBatch = 8

// EvalCache memoizes the full value table of one polynomial over a small
// field. The uniform schemes fingerprint a single shared payload at
// thousands of (node, port, trial) points drawn from a field of size O(λ);
// once the number of evaluations passes p, tabulating A(x) for every
// x ∈ GF(p) and looking points up is strictly cheaper than re-running
// Horner per point. The cache holds one (polynomial, field) entry and
// rebuilds on mismatch, so it belongs to schemes whose polynomial is
// globally shared — per-node polynomials would thrash it.
//
// The table is a pure memo: lookups return exactly Poly.EvalMany's values,
// so cached and direct evaluation are bit-identical. It is safe for
// concurrent use by the estimator's trial workers.
type EvalCache struct {
	mu    sync.Mutex
	s     bitstring.String // the cached polynomial's coefficients
	p     uint64
	table []uint64
}

// EvalMany is Poly.EvalMany through the cache: out[k] = A(xs[k]) for the
// polynomial whose coefficients are the bits of s, over GF(p). Every
// xs[k] must be < p, as fingerprint draws and decoded fingerprints are.
// A nil cache, a large field, or a tiny batch evaluates directly.
func (c *EvalCache) EvalMany(s bitstring.String, p uint64, xs, out []uint64) {
	if c == nil || p > maxTablePrime || len(xs) < minTableBatch {
		NewPoly(s, p).EvalMany(xs, out)
		return
	}
	table := c.lookup(s, p)
	for k, x := range xs {
		out[k] = table[x]
	}
}

// lookup returns the value table for (s, p), rebuilding the entry when the
// cached polynomial differs. The entry is matched by content (String.Equal)
// and holds its own copy of the coefficients, since a caller's string may
// alias storage it reuses. A published table is immutable — rebuilds swap
// in a fresh slice — so the lock guards only the pointer exchange and two
// racing rebuilds merely duplicate work.
func (c *EvalCache) lookup(s bitstring.String, p uint64) []uint64 {
	c.mu.Lock()
	if c.p == p && c.s.Equal(s) {
		t := c.table
		c.mu.Unlock()
		return t
	}
	c.mu.Unlock()
	xs := make([]uint64, p)
	for x := range xs {
		xs[x] = uint64(x)
	}
	t := make([]uint64, p)
	NewPoly(s, p).EvalMany(xs, t)
	own := bitstring.Concat(s)
	c.mu.Lock()
	c.s, c.p, c.table = own, p, t
	c.mu.Unlock()
	return t
}
