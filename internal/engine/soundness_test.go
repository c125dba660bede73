package engine_test

import (
	"bytes"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/prng"
)

// perBitRandomLabels is the adversary's per-bit construction, kept as the
// reference RandomLabels must reproduce: one []byte per label, one byte
// per drawn bit, packed by FromBits.
func perBitRandomLabels(rng *prng.Rand, n, maxBits int) []core.Label {
	out := make([]core.Label, n)
	for i := range out {
		bits := make([]byte, rng.Intn(maxBits+1))
		for j := range bits {
			bits[j] = rng.Bit()
		}
		out[i] = bitstring.FromBits(bits)
	}
	return out
}

// perBitFlippedLabels is BitFlippedLabels' per-bit reference.
func perBitFlippedLabels(rng *prng.Rand, labels []core.Label) []core.Label {
	out := append([]core.Label(nil), labels...)
	if len(out) == 0 {
		return out
	}
	v := rng.Intn(len(out))
	l := out[v]
	if l.Len() == 0 {
		out[v] = bitstring.FromBits([]byte{1})
		return out
	}
	pos := rng.Intn(l.Len())
	bits := make([]byte, l.Len())
	for i := range bits {
		bits[i] = l.Bit(i)
	}
	bits[pos] ^= 1
	out[v] = bitstring.FromBits(bits)
	return out
}

// sameLabels reports whether two label sets are bit-identical, padding
// included.
func sameLabels(a, b []core.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Len() != b[i].Len() || !bytes.Equal(a[i].Bytes(), b[i].Bytes()) {
			return false
		}
	}
	return true
}

// TestAdversaryLabelsMatchPerBitReference: RandomLabels and
// BitFlippedLabels pack their bits as they draw them, and must give the
// per-bit construction's labels bit for bit, consuming the same draws
// (the streams agree afterwards), for lengths around every word boundary.
func TestAdversaryLabelsMatchPerBitReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, maxBits := range []int{0, 1, 7, 63, 64, 65, 1000} {
			got, ref := prng.New(seed), prng.New(seed)
			for a := 0; a < 4; a++ {
				labels, want := engine.RandomLabels(got, 16, maxBits), perBitRandomLabels(ref, 16, maxBits)
				if !sameLabels(labels, want) {
					t.Fatalf("seed %d, maxBits %d, set %d: RandomLabels differs from the per-bit reference", seed, maxBits, a)
				}
				// Flip within the set just drawn: it holds empty labels at
				// small maxBits, which gain a 1 bit instead.
				if !sameLabels(engine.BitFlippedLabels(got, labels), perBitFlippedLabels(ref, want)) {
					t.Fatalf("seed %d, maxBits %d, set %d: BitFlippedLabels differs from the per-bit reference", seed, maxBits, a)
				}
			}
			if got.Uint64() != ref.Uint64() {
				t.Fatalf("seed %d, maxBits %d: the streams diverged", seed, maxBits)
			}
		}
	}
}
