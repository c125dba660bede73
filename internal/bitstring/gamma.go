package bitstring

import (
	"fmt"
	"math/bits"
)

// Elias-gamma coding of non-negative integers. A value v is stored as
// gamma(v+1): ⌊log₂(v+1)⌋ zeros, then the binary expansion of v+1. The code
// is self-delimiting and costs 2⌊log₂(v+1)⌋+1 bits, which keeps the
// O(log κ) certificate bound of Theorem 3.1 intact when certificates must
// carry the length of the string they fingerprint.

// WriteGamma appends the Elias-gamma code of v (v >= 0).
func (w *Writer) WriteGamma(v uint64) {
	if v == ^uint64(0) {
		panic("bitstring: gamma value overflow")
	}
	x := v + 1
	n := UintBits(x)
	if n <= 32 {
		// The n−1 zeros followed by the n bits of x are just x in a
		// 2n−1-bit window (the top bit of x lands at position n−1). One
		// chunked append instead of a per-bit loop: gamma prefixes frame
		// every certificate, so this runs per port per trial.
		w.writeBits(x, 2*n-1)
		return
	}
	for i := 0; i < n-1; i++ {
		w.WriteBit(0)
	}
	w.WriteUint(x, n)
}

// GammaBits returns the encoded size of v in bits.
func GammaBits(v uint64) int {
	return 2*UintBits(v+1) - 1
}

// ReadGamma consumes an Elias-gamma code. The zero prefix is scanned one
// storage byte at a time and the suffix read as one chunked ReadUint —
// the per-bit loop it replaces showed up at the top of estimator profiles.
//
// Only canonical codes decode: a prefix of 64 or more zeros is rejected,
// since no uint64 has a longer code (gamma(2⁶⁴−2) has 63 zeros). Without
// that bound, 64 zeros, a 1 and a 64-bit suffix r would wrap to r − 1, a
// second, longer code for a value, and a decoded value would no longer
// fix the number of bits consumed.
func (r *Reader) ReadGamma() (uint64, error) {
	pos, end := r.pos, r.s.n
	zeros := 0
	for {
		if pos >= end {
			return 0, fmt.Errorf("gamma prefix: bitstring: read past end at bit %d", pos)
		}
		avail := 8 - (pos & 7)
		if left := end - pos; left < avail {
			avail = left
		}
		// The next avail bits, left-aligned in a byte; storage past Len is
		// zero-padded, so mask to the valid window.
		chunk := r.s.data[pos>>3] << uint(pos&7)
		chunk &= 0xFF << uint(8-avail)
		if chunk == 0 {
			zeros += avail
			pos += avail
		} else {
			lz := bits.LeadingZeros8(chunk)
			zeros += lz
			pos += lz + 1
			break
		}
		if zeros >= 64 {
			return 0, fmt.Errorf("gamma prefix too long (%d zeros)", zeros)
		}
	}
	if zeros >= 64 {
		return 0, fmt.Errorf("gamma prefix too long (%d zeros)", zeros)
	}
	r.pos = pos
	if zeros == 0 {
		return 0, nil // x == 1
	}
	rest, err := r.ReadUint(zeros)
	if err != nil {
		return 0, fmt.Errorf("gamma suffix: %w", err)
	}
	// The leading 1 already consumed is the top bit of x.
	x := uint64(1)<<uint(zeros) | rest
	return x - 1, nil
}
