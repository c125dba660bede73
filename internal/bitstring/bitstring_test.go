package bitstring

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTripUint(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9}, {1 << 40, 41},
		{^uint64(0), 64}, {0, 64}, {12345, 17},
	}
	var w Writer
	for _, c := range cases {
		w.WriteUint(c.v, c.width)
	}
	r := NewReader(w.String())
	for _, c := range cases {
		got, err := r.ReadUint(c.width)
		if err != nil {
			t.Fatalf("ReadUint(%d): %v", c.width, err)
		}
		if got != c.v {
			t.Errorf("round trip width %d: got %d want %d", c.width, got, c.v)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining() = %d after reading everything", r.Remaining())
	}
}

func TestWriteReadRoundTripInt(t *testing.T) {
	vals := []int64{0, 1, -1, 42, -42, 1 << 30, -(1 << 30)}
	var w Writer
	for _, v := range vals {
		w.WriteInt(v, 40)
	}
	r := NewReader(w.String())
	for _, v := range vals {
		got, err := r.ReadInt(40)
		if err != nil {
			t.Fatalf("ReadInt: %v", err)
		}
		if got != v {
			t.Errorf("round trip: got %d want %d", got, v)
		}
	}
}

func TestLenCountsBitsExactly(t *testing.T) {
	var w Writer
	w.WriteUint(3, 2)
	w.WriteBit(1)
	if got := w.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
	s := w.String()
	if s.Len() != 3 {
		t.Errorf("String().Len() = %d, want 3", s.Len())
	}
}

func TestBitIndexing(t *testing.T) {
	s := FromBits([]byte{1, 0, 1, 1, 0, 0, 0, 1, 1})
	want := []byte{1, 0, 1, 1, 0, 0, 0, 1, 1}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for i, b := range want {
		if got := s.Bit(i); got != b {
			t.Errorf("Bit(%d) = %d, want %d", i, got, b)
		}
	}
}

func TestEqualIgnoresPadding(t *testing.T) {
	var w1 Writer
	w1.WriteUint(5, 3)
	a := w1.String()

	// Same three bits but reached via a different construction path.
	b := FromBits([]byte{1, 0, 1})
	if !a.Equal(b) {
		t.Errorf("equal bit content compared unequal: %v vs %v", a, b)
	}

	c := FromBits([]byte{1, 0, 1, 0})
	if a.Equal(c) {
		t.Error("strings of different lengths compared equal")
	}
	d := FromBits([]byte{1, 1, 1})
	if a.Equal(d) {
		t.Error("different bit content compared equal")
	}
}

func TestTruncate(t *testing.T) {
	s := FromBits([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	for _, n := range []int{0, 1, 7, 8, 9, 10, 11, 100} {
		got := s.Truncate(n)
		wantLen := n
		if wantLen > 10 {
			wantLen = 10
		}
		if got.Len() != wantLen {
			t.Errorf("Truncate(%d).Len() = %d, want %d", n, got.Len(), wantLen)
		}
		for i := 0; i < got.Len(); i++ {
			if got.Bit(i) != 1 {
				t.Errorf("Truncate(%d).Bit(%d) = 0, want 1", n, i)
			}
		}
	}
	if s.Truncate(-3).Len() != 0 {
		t.Error("negative truncation should yield empty string")
	}
}

func TestSlice(t *testing.T) {
	s := FromBits([]byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1})
	cases := []struct {
		lo, hi int
		want   string
	}{
		{0, 11, "10110010111"},
		{0, 0, ""},
		{3, 7, "1001"},
		{8, 11, "111"},
		{9, 100, "11"}, // hi clamps to Len
		{-5, 2, "10"},  // lo clamps to 0
		{7, 3, ""},     // inverted range is empty
		{11, 11, ""},
	}
	for _, c := range cases {
		if got := s.Slice(c.lo, c.hi).String(); got != c.want {
			t.Errorf("Slice(%d, %d) = %q, want %q", c.lo, c.hi, got, c.want)
		}
	}
	// A slice round-trip: any split point reassembles the original.
	for cut := 0; cut <= s.Len(); cut++ {
		if got := Concat(s.Slice(0, cut), s.Slice(cut, s.Len())); !got.Equal(s) {
			t.Errorf("split at %d does not reassemble", cut)
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromBits([]byte{1, 0})
	b := FromBits([]byte{1, 1, 1})
	c := Concat(a, b)
	want := FromBits([]byte{1, 0, 1, 1, 1})
	if !c.Equal(want) {
		t.Errorf("Concat = %v, want %v", c, want)
	}
	if Concat().Len() != 0 {
		t.Error("empty Concat should be empty")
	}
}

func TestKeyUniquelyIdentifies(t *testing.T) {
	a := FromBits([]byte{1, 0, 1})
	b := FromBits([]byte{1, 0, 1})
	c := FromBits([]byte{1, 0, 1, 0})
	d := FromBits([]byte{0, 0, 1})
	if a.Key() != b.Key() {
		t.Error("equal strings should have equal keys")
	}
	if a.Key() == c.Key() {
		t.Error("prefix should have a distinct key")
	}
	if a.Key() == d.Key() {
		t.Error("different content should have a distinct key")
	}
}

func TestUintBits(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {^uint64(0), 64}}
	for _, c := range cases {
		if got := UintBits(c.v); got != c.want {
			t.Errorf("UintBits(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestReaderPastEnd(t *testing.T) {
	r := NewReader(FromBits([]byte{1, 0}))
	if _, err := r.ReadUint(3); err == nil {
		t.Error("reading 3 bits from a 2-bit string should fail")
	}
	r2 := NewReader(FromBits([]byte{1}))
	if _, err := r2.ReadBit(); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadBit(); err == nil {
		t.Error("second ReadBit on 1-bit string should fail")
	}
	r3 := NewReader(FromBits(nil))
	if _, err := r3.ReadInt(4); err == nil {
		t.Error("ReadInt on empty string should fail")
	}
	if _, err := r3.ReadString(1); err == nil {
		t.Error("ReadString on empty string should fail")
	}
}

func TestReadString(t *testing.T) {
	var w Writer
	w.WriteUint(0b10110, 5)
	w.WriteUint(0b001, 3)
	r := NewReader(w.String())
	first, err := r.ReadString(5)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(FromBits([]byte{1, 0, 1, 1, 0})) {
		t.Errorf("first = %v", first)
	}
	second, err := r.ReadString(3)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Equal(FromBits([]byte{0, 0, 1})) {
		t.Errorf("second = %v", second)
	}
}

func TestFromBytes(t *testing.T) {
	s := FromBytes([]byte{0xA5})
	want := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	for i, b := range want {
		if s.Bit(i) != b {
			t.Errorf("Bit(%d) = %d, want %d", i, s.Bit(i), b)
		}
	}
}

// TestFromBitsMatchesWriter checks the packed FromBits against the
// bit-at-a-time Writer at every length 0..130, on inputs whose bytes are
// not just 0 and 1: only the low bit of each counts.
func TestFromBitsMatchesWriter(t *testing.T) {
	for n := 0; n <= 130; n++ {
		in := make([]byte, n)
		var w Writer
		for i := range in {
			in[i] = byte(i*37 + n*11 + i*i)
			w.WriteBit(in[i])
		}
		got, want := FromBits(in), w.String()
		if !got.Equal(want) || got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: FromBits = %v (%x), Writer = %v (%x)", n, got, got.Bytes(), want, want.Bytes())
		}
	}
}

// TestWriteStringMatchesWriteBit: WriteString appends bytes on a
// byte-aligned writer and shift-merges words on any other, and must give
// exactly what writing the string bit by bit gives, at every writer offset
// 0–7 and string length 0–200, including the bits written after it.
func TestWriteStringMatchesWriteBit(t *testing.T) {
	bit := func(i, salt int) byte { return byte((i*i*7 + i*13 + salt*29) >> 2) }
	for off := 0; off < 8; off++ {
		for n := 0; n <= 200; n++ {
			in := make([]byte, n)
			for i := range in {
				in[i] = bit(i, n+off)
			}
			src := FromBits(in)
			var got, want Writer
			for i := 0; i < off; i++ {
				got.WriteBit(bit(i, off))
				want.WriteBit(bit(i, off))
			}
			got.WriteString(src)
			for _, b := range in {
				want.WriteBit(b)
			}
			got.WriteUint(5, 3)
			want.WriteUint(5, 3)
			g, w := got.String(), want.String()
			if g.Len() != w.Len() || !bytes.Equal(g.Bytes(), w.Bytes()) {
				t.Fatalf("offset %d, length %d: WriteString gave %v (%x), bit by bit %v (%x)", off, n, g, g.Bytes(), w, w.Bytes())
			}
		}
	}
}

// TestFlipBit: FlipBit copies the string with exactly one bit inverted.
func TestFlipBit(t *testing.T) {
	for n := 1; n <= 70; n++ {
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(i*5+n) >> 1
		}
		s := FromBits(in)
		for i := 0; i < n; i++ {
			want := append([]byte(nil), in...)
			want[i] ^= 1
			if got := s.FlipBit(i); got.Len() != n || !bytes.Equal(got.Bytes(), FromBits(want).Bytes()) {
				t.Fatalf("n=%d: FlipBit(%d) = %v, want %v", n, i, got, FromBits(want))
			}
		}
		if !s.Equal(FromBits(in)) {
			t.Fatalf("n=%d: FlipBit changed its receiver", n)
		}
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint16) bool {
		var w Writer
		for _, v := range vals {
			w.WriteUint(uint64(v), 16)
		}
		r := NewReader(w.String())
		for _, v := range vals {
			got, err := r.ReadUint(16)
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Concat length is the sum of lengths and preserves content.
func TestQuickConcat(t *testing.T) {
	f := func(a, b []bool) bool {
		toBits := func(xs []bool) []byte {
			out := make([]byte, len(xs))
			for i, x := range xs {
				if x {
					out[i] = 1
				}
			}
			return out
		}
		sa, sb := FromBits(toBits(a)), FromBits(toBits(b))
		c := Concat(sa, sb)
		if c.Len() != sa.Len()+sb.Len() {
			return false
		}
		for i := 0; i < sa.Len(); i++ {
			if c.Bit(i) != sa.Bit(i) {
				return false
			}
		}
		for i := 0; i < sb.Len(); i++ {
			if c.Bit(sa.Len()+i) != sb.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteUintPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteUint(4, 2) should panic: 4 needs 3 bits")
		}
	}()
	var w Writer
	w.WriteUint(4, 2)
}

// TestWordsRoundTrip checks Words and FromWords against the Writer at
// every length up to 130 bits: Words returns the first min(Len, 128) bits
// left-aligned with zeros past them, and FromWords stores exactly the
// Writer's bytes, padding included, clearing pair bits past its length.
func TestWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 130; n++ {
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		s := FromBits(bits)
		hi, lo := s.Words()
		for i := 0; i < 128; i++ {
			var got byte
			if i < 64 {
				got = byte(hi>>(63-uint(i))) & 1
			} else {
				got = byte(lo>>(127-uint(i))) & 1
			}
			var want byte
			if i < n {
				want = bits[i]
			}
			if got != want {
				t.Fatalf("n=%d: Words bit %d = %d, want %d", n, i, got, want)
			}
		}
		if n > 128 {
			continue
		}
		junkHi, junkLo := ^uint64(0), ^uint64(0) // every pair bit past n
		if n < 64 {
			junkHi >>= uint(n)
		} else {
			junkHi, junkLo = 0, junkLo>>uint(n-64)
		}
		back := FromWords(hi|junkHi, lo|junkLo, n, make([]byte, 16))
		if !back.Equal(s) || !bytes.Equal(back.Bytes(), s.Bytes()) {
			t.Fatalf("n=%d: FromWords = %v (% x), want %v (% x)", n, back, back.Bytes(), s, s.Bytes())
		}
	}
}
