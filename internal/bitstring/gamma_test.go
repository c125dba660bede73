package bitstring

import (
	"testing"
	"testing/quick"
)

func TestGammaRoundTripSmall(t *testing.T) {
	for v := uint64(0); v < 1000; v++ {
		var w Writer
		w.WriteGamma(v)
		if got := w.Len(); got != GammaBits(v) {
			t.Fatalf("GammaBits(%d) = %d but encoder wrote %d", v, GammaBits(v), got)
		}
		r := NewReader(w.String())
		got, err := r.ReadGamma()
		if err != nil {
			t.Fatalf("ReadGamma(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
		if r.Remaining() != 0 {
			t.Fatalf("gamma(%d) left %d bits unread", v, r.Remaining())
		}
	}
}

func TestGammaRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		if v == ^uint64(0) {
			return true // documented overflow panic case
		}
		var w Writer
		w.WriteGamma(v)
		got, err := NewReader(w.String()).ReadGamma()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaSelfDelimiting(t *testing.T) {
	// Several gamma codes followed by payload bits decode unambiguously.
	var w Writer
	vals := []uint64{0, 1, 7, 255, 100000}
	for _, v := range vals {
		w.WriteGamma(v)
	}
	w.WriteUint(0b1011, 4)
	r := NewReader(w.String())
	for _, v := range vals {
		got, err := r.ReadGamma()
		if err != nil || got != v {
			t.Fatalf("decode %d: got %d err %v", v, got, err)
		}
	}
	tail, err := r.ReadUint(4)
	if err != nil || tail != 0b1011 {
		t.Fatalf("payload after gammas: got %d err %v", tail, err)
	}
}

func TestGammaBitsIsLogarithmic(t *testing.T) {
	if GammaBits(0) != 1 {
		t.Errorf("GammaBits(0) = %d, want 1", GammaBits(0))
	}
	for _, c := range []struct {
		v    uint64
		want int
	}{{1, 3}, {2, 3}, {3, 5}, {7, 7}, {255, 17}} {
		if got := GammaBits(c.v); got != c.want {
			t.Errorf("GammaBits(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestReadGammaRejectsGarbage(t *testing.T) {
	// All-zero prefix with no terminating one.
	r := NewReader(FromBits(make([]byte, 70)))
	if _, err := r.ReadGamma(); err == nil {
		t.Error("70 zero bits decoded as a gamma code")
	}
	// Truncated suffix.
	var w Writer
	w.WriteGamma(1000)
	trunc := w.String().Truncate(w.Len() - 3)
	if _, err := NewReader(trunc).ReadGamma(); err == nil {
		t.Error("truncated gamma code decoded")
	}
	// Empty input.
	if _, err := NewReader(String{}).ReadGamma(); err == nil {
		t.Error("empty input decoded")
	}
}

func TestWriteGammaPanicsOnMaxUint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteGamma(MaxUint64) should panic (v+1 overflows)")
		}
	}()
	var w Writer
	w.WriteGamma(^uint64(0))
}

// nonCanonicalOne is a 129-bit code for 1: 64 zeros, a 1 and the 64-bit
// value 2. Before ReadGamma bounded its prefix by 63 zeros, the top bit
// wrapped away and this decoded as 1, whose canonical code is 3 bits.
func nonCanonicalOne() String {
	var w Writer
	w.WriteUint(0, 64)
	w.WriteBit(1)
	w.WriteUint(2, 64)
	return w.String()
}

func TestReadGammaRejectsNonCanonical(t *testing.T) {
	if v, err := NewReader(nonCanonicalOne()).ReadGamma(); err == nil {
		t.Fatalf("129-bit non-canonical code decoded as %d", v)
	}
	// The longest canonical code, gamma(2⁶⁴−2) with 63 zeros, still decodes.
	var w Writer
	w.WriteGamma(^uint64(0) - 1)
	r := NewReader(w.String())
	if v, err := r.ReadGamma(); err != nil || v != ^uint64(0)-1 || r.Remaining() != 0 {
		t.Fatalf("gamma(2^64-2): got %d, err %v, %d bits left", v, err, r.Remaining())
	}
}

// FuzzGamma feeds ReadGamma arbitrary bits. The oracle: no panic, and an
// accepted value re-encodes through WriteGamma to exactly the bits it
// consumed, so every value has one code.
func FuzzGamma(f *testing.F) {
	var w Writer
	w.WriteGamma(1000)
	for _, s := range []String{nonCanonicalOne(), w.String(), FromBits(make([]byte, 70)), {}} {
		f.Add(s.Bytes(), s.Len())
	}
	f.Fuzz(func(t *testing.T, data []byte, bits int) {
		if bits < 0 || bits > 8*len(data) {
			bits = 8 * len(data)
		}
		s := FromBytes(data).Truncate(bits)
		r := NewReader(s)
		v, err := r.ReadGamma()
		if err != nil {
			return
		}
		var w Writer
		w.WriteGamma(v)
		if consumed := s.Truncate(s.Len() - r.Remaining()); !w.String().Equal(consumed) {
			t.Fatalf("decoded %d from %d bits; its code is %d bits %v", v, consumed.Len(), w.Len(), w.String())
		}
	})
}
