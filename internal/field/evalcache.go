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

// EvalCache memoizes the full value tables of polynomials over a small
// field. The uniform schemes fingerprint a single shared payload at
// thousands of (node, port, trial) points drawn from a field of size O(λ);
// once the number of evaluations passes p, tabulating A(x) for every
// x ∈ GF(p) and looking points up is strictly cheaper than re-running
// Horner per point. The cache holds the two most recently used
// (polynomial, field) entries and rebuilds the older one on a miss, so a
// configuration with two payloads — an illegal instance of a shared
// payload — keeps both tables while the node order crosses between them.
// It belongs to schemes whose polynomials are globally shared: per-node
// polynomials would thrash it.
//
// The table is a pure memo: lookups return exactly Poly.EvalMany's values,
// so cached and direct evaluation are bit-identical. It is safe for
// concurrent use by the estimator's trial workers.
type EvalCache struct {
	mu      sync.Mutex
	entries [2]evalEntry // most recently used first
}

// evalEntry is one cached polynomial's value table over GF(p).
type evalEntry struct {
	s     bitstring.String // the polynomial's coefficients
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

// lookup returns the value table for (s, p), building it in place of the
// least recently used entry when neither entry holds it. Entries are
// matched by content (String.Equal) and hold their own copy of the
// coefficients, since a caller's string may alias storage it reuses. A
// published table is immutable — builds swap in a fresh slice — so the
// lock guards only the entry exchange and two racing builds merely
// duplicate work.
func (c *EvalCache) lookup(s bitstring.String, p uint64) []uint64 {
	c.mu.Lock()
	for i, e := range c.entries {
		if e.p == p && e.s.Equal(s) {
			c.entries[0], c.entries[i] = e, c.entries[0]
			c.mu.Unlock()
			return e.table
		}
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
	c.entries[1], c.entries[0] = c.entries[0], evalEntry{s: own, p: p, table: t}
	c.mu.Unlock()
	return t
}
