package core

import "rpls/internal/prng"

// Scratch is the storage a Prepared node borrows from its executor. The
// executor owns one Scratch per worker and lends it to every node call, so
// a warm lane loop allocates nothing: the nodes are shared read-only by
// the trial-parallel workers and keep no per-call state of their own.
//
// A Scratch has two regions, which differ only in lifetime:
//
//   - The run region holds the bytes of the certificates a node's Certs
//     writes. The executor's plane references them until the run's decide
//     pass ends, so the executor resets the region once per run
//     (ResetRun).
//   - The call region holds every other buffer: evaluation points and
//     values, framing sizes, parsed members, windows and batches, and
//     repetition streams. The executor resets it before each node call
//     (ResetCall). A wrapper and the inner node it calls draw from the
//     same call region within one call. A wrapper that calls its inner
//     node more than once gives back what each inner call took as soon
//     as it returns (mark, release), so a call holds its own buffers and
//     one inner call's, never the sum of all its inner calls'.
//
// A region that runs short moves to a larger buffer and leaves the slices
// it already handed out valid, so the regions grow to the widest run and
// call and then serve every later one from the same storage. Buffers come
// back dirty: a node writes every element before it reads it. The zero
// value is ready to use.
type Scratch struct {
	run region[byte] // certificate bytes

	words region[uint64]
	ints  region[int]
	bytes region[byte]
	certs region[Cert]
	lists region[[]Cert]
	rands region[prng.Rand]
	rngs  region[*prng.Rand]
}

// ResetRun empties both regions. The executor calls it once per run,
// before the first node's Certs.
//
//pls:hotpath
func (s *Scratch) ResetRun() {
	s.run.off = 0
	s.ResetCall()
}

// ResetCall empties the call region. The executor calls it before each
// node call.
//
//pls:hotpath
func (s *Scratch) ResetCall() {
	s.release(callMark{})
}

// callMark is how far each buffer of the call region is handed out.
type callMark struct{ words, ints, bytes, certs, lists, rands, rngs int }

// mark returns the call region's fill, for release to return to.
//
//pls:hotpath
func (s *Scratch) mark() callMark {
	return callMark{s.words.off, s.ints.off, s.bytes.off, s.certs.off, s.lists.off, s.rands.off, s.rngs.off}
}

// release gives back everything the call region handed out since m was
// marked; the slices handed out before m stay valid. A region that grew
// since m moved to a buffer at least as long as m's fill, whose front it
// then leaves unused.
//
//pls:hotpath
func (s *Scratch) release(m callMark) {
	s.words.off, s.ints.off, s.bytes.off, s.certs.off = m.words, m.ints, m.bytes, m.certs
	s.lists.off, s.rands.off, s.rngs.off = m.lists, m.rands, m.rngs
}

// streams returns n pointers to n distinct streams of the call region.
//
//pls:hotpath
func (s *Scratch) streams(n int) []*prng.Rand {
	ptrs, vals := s.rngs.take(n), s.rands.take(n)
	for i := range ptrs {
		ptrs[i] = &vals[i]
	}
	return ptrs
}

// region is one typed bump allocator of a Scratch.
type region[T any] struct {
	buf []T
	off int
}

// take returns the next n elements of the region, dirty, with their
// capacity capped at n. A region that runs short moves to a buffer at
// least twice as large and starts it from the front; the slices it handed
// out keep the old buffer alive, and the next reset reuses the new one.
//
//pls:hotpath
func (r *region[T]) take(n int) []T {
	if r.off+n > len(r.buf) {
		r.buf = make([]T, max(2*len(r.buf), n, 64)) //plsvet:allow hotalloc — capacity-guarded grow of a node's scratch, amortized across runs
		r.off = 0
	}
	s := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return s
}
