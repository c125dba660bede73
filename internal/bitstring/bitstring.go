// Package bitstring implements bit-exact binary strings used as
// proof-labeling-scheme labels and certificates.
//
// The verification complexity of a proof-labeling scheme (Definition 2.1 in
// the paper) is the maximum length, in bits, of the strings exchanged between
// neighbors. Byte-granular encodings would distort measurements by up to 7
// bits per field, so labels are built with a bit-level writer and decoded
// with a bit-level reader.
package bitstring

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// String is an immutable sequence of bits. The zero value is the empty
// string. Bits are stored most-significant-first within each byte.
type String struct {
	data []byte
	n    int // number of valid bits
}

// FromBytes wraps b as a bit string of 8*len(b) bits. The slice is copied.
func FromBytes(b []byte) String {
	d := make([]byte, len(b))
	copy(d, b)
	return String{data: d, n: 8 * len(b)}
}

// FromBits builds a String from individual bits: bit i is the low bit of
// bits[i].
func FromBits(bits []byte) String {
	d := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		d[i>>3] |= (b & 1) << (7 - uint(i&7))
	}
	return String{data: d, n: len(bits)}
}

// Len returns the length in bits.
func (s String) Len() int { return s.n }

// Bytes returns a copy of the underlying storage. The final byte is
// zero-padded if Len is not a multiple of 8.
func (s String) Bytes() []byte {
	d := make([]byte, len(s.data))
	copy(d, s.data)
	return d
}

// ByteAt returns byte i of the underlying storage without copying: bits
// 8i..8i+7 of the string, most significant first, with any bits past Len
// zero. It exists for batched polynomial evaluation, where per-bit Bit
// calls dominate the Horner loop; ordinary decoding should use a Reader.
func (s String) ByteAt(i int) byte { return s.data[i] }

// Words returns the first min(Len, 128) bits of s left-aligned in two
// words: bit i is bit 63−i of hi for i < 64 and bit 127−i of lo for
// 64 ≤ i < 128. Bits past Len are zero. It is one load of at most 16
// bytes, for fixed-layout codecs that parse a whole short string with
// shifts instead of a Reader.
func (s String) Words() (hi, lo uint64) {
	var b [16]byte
	copy(b[:], s.data[:min(len(s.data), 16)])
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// FromWords returns the n-bit String (0 ≤ n ≤ 128) whose bits are the
// first n of the left-aligned pair (hi, lo), laid out as Words reads
// them, and stored in buf[:(n+7)/8]: the result aliases buf, so a caller
// that carves disjoint regions out of one slab builds many Strings with
// one allocation. Bits of the pair past n are cleared. It panics if n is
// out of range or buf is too short, both programming errors.
func FromWords(hi, lo uint64, n int, buf []byte) String {
	if n < 0 || n > 128 {
		panic(fmt.Sprintf("bitstring: %d bits do not fit in two words", n))
	}
	if n < 64 {
		hi &^= ^uint64(0) >> uint(n)
		lo = 0
	} else {
		lo &^= ^uint64(0) >> uint(n-64)
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
	d := buf[:(n+7)/8]
	copy(d, b[:])
	return String{data: d, n: n}
}

// Bit returns the i-th bit (0-indexed). It panics if i is out of range;
// callers index only within Len, which is an invariant of decoding.
func (s String) Bit(i int) byte {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstring: bit index %d out of range [0,%d)", i, s.n))
	}
	return (s.data[i>>3] >> (7 - uint(i&7))) & 1
}

// FlipBit returns a copy of s with bit i inverted. It panics if i is out
// of range, like Bit.
func (s String) FlipBit(i int) String {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstring: bit index %d out of range [0,%d)", i, s.n))
	}
	d := s.Bytes()
	d[i>>3] ^= 1 << (7 - uint(i&7))
	return String{data: d, n: s.n}
}

// Equal reports whether two strings have identical length and content.
func (s String) Equal(t String) bool {
	if s.n != t.n {
		return false
	}
	full := s.n >> 3
	for i := 0; i < full; i++ {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	if rem := uint(s.n & 7); rem != 0 {
		mask := byte(0xFF) << (8 - rem)
		if s.data[full]&mask != t.data[full]&mask {
			return false
		}
	}
	return true
}

// Truncate returns the prefix of s of at most n bits. Truncation models an
// adversarially constrained label budget in the lower-bound experiments.
func (s String) Truncate(n int) String {
	if n >= s.n {
		return s
	}
	if n < 0 {
		n = 0
	}
	nb := (n + 7) / 8
	d := make([]byte, nb)
	copy(d, s.data[:nb])
	if rem := uint(n & 7); rem != 0 {
		d[nb-1] &= byte(0xFF) << (8 - rem)
	}
	return String{data: d, n: n}
}

// Slice returns the bits [lo, hi) of s as a new String. Bounds are clamped
// to [0, Len], so a slice reaching past the end is simply shorter — the
// behavior certificate sharding relies on for the final, partial shard.
// The copy is byte-wise (one shift-and-or per output byte), since sharding
// calls this once per port per round inside the estimator's trial loop.
func (s String) Slice(lo, hi int) String {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return String{}
	}
	if lo == 0 {
		return s.Truncate(hi)
	}
	n := hi - lo
	d := make([]byte, (n+7)/8)
	start, off := lo>>3, uint(lo&7)
	if off == 0 {
		copy(d, s.data[start:start+len(d)])
	} else {
		for i := range d {
			b := s.data[start+i] << off
			if start+i+1 < len(s.data) {
				b |= s.data[start+i+1] >> (8 - off)
			}
			d[i] = b
		}
	}
	if rem := uint(n & 7); rem != 0 {
		d[len(d)-1] &= byte(0xFF) << (8 - rem)
	}
	return String{data: d, n: n}
}

// Concat returns the concatenation of s followed by t.
func Concat(ss ...String) String {
	var w Writer
	for _, s := range ss {
		w.WriteString(s)
	}
	return w.String()
}

// String renders the bits as a 0/1 text string, for diagnostics.
func (s String) String() string {
	out := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = '0' + s.Bit(i)
	}
	return string(out)
}

// Key returns a comparable representation usable as a map key. Two strings
// have equal keys iff Equal reports true.
func (s String) Key() string {
	// Normalize trailing padding before converting.
	t := s.Truncate(s.n)
	return fmt.Sprintf("%d:%s", t.n, string(t.data))
}

// UintBits returns the minimum number of bits needed to represent v,
// with UintBits(0) == 1.
func UintBits(v uint64) int {
	if v == 0 {
		return 1
	}
	return bits.Len64(v)
}

// Writer incrementally assembles a String. The zero value is ready to use.
type Writer struct {
	data []byte
	n    int
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b byte) {
	if w.n&7 == 0 {
		w.data = append(w.data, 0)
	}
	if b&1 == 1 {
		w.data[w.n>>3] |= 1 << (7 - uint(w.n&7))
	}
	w.n++
}

// writeBits appends the width lowest bits of v, most significant first,
// one byte-aligned chunk at a time. This is the shared fast path of
// WriteUint and WriteString: appends work in up-to-8-bit chunks instead of
// single bits, which matters because certificate framing (gamma prefixes,
// fingerprint fields) runs inside the estimator's trial loop.
func (w *Writer) writeBits(v uint64, width int) {
	for width > 0 {
		if w.n&7 == 0 {
			w.data = append(w.data, 0)
		}
		free := 8 - (w.n & 7)
		k := free
		if width < k {
			k = width
		}
		chunk := byte(v>>uint(width-k)) & (0xFF >> (8 - uint(k)))
		w.data[w.n>>3] |= chunk << uint(free-k)
		w.n += k
		width -= k
	}
}

// WriteUint appends the width lowest bits of v, most significant first.
// It panics if v does not fit in width bits; label layouts are fixed by the
// scheme designer and a misfit is a programming error, not an input error.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitstring: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitstring: value %d does not fit in %d bits", v, width))
	}
	w.writeBits(v, width)
}

// WriteInt appends a signed value as a sign bit followed by width magnitude
// bits.
func (w *Writer) WriteInt(v int64, width int) {
	if v < 0 {
		w.WriteBit(1)
		w.WriteUint(uint64(-v), width)
		return
	}
	w.WriteBit(0)
	w.WriteUint(uint64(v), width)
}

// WriteString appends another bit string. A byte-aligned writer appends
// s's bytes as they are; otherwise s is shift-merged 64 bits at a time.
// Certificate framing (Boost's repetitions, a cap's class messages) calls
// it on every string of every trial.
func (w *Writer) WriteString(s String) {
	nb := (s.n + 7) / 8
	if w.n&7 == 0 {
		w.data = append(w.data, s.data[:nb]...)
		if rem := uint(s.n & 7); rem != 0 {
			w.data[len(w.data)-1] &= byte(0xFF) << (8 - rem)
		}
		w.n += s.n
		return
	}
	i := 0
	for ; 8*(i+8) <= s.n; i += 8 {
		w.mergeWord(binary.BigEndian.Uint64(s.data[i:]), 64)
	}
	if k := s.n - 8*i; k > 0 {
		var b [8]byte
		copy(b[:], s.data[i:nb])
		w.mergeWord(binary.BigEndian.Uint64(b[:])&^(^uint64(0)>>uint(k)), k)
	}
}

// mergeWord appends the first k bits (1 ≤ k ≤ 64) of the left-aligned
// word v, whose other bits are zero, to a writer that is not byte-aligned:
// the top bits of v fill the writer's last byte and the rest follow in
// whole bytes.
func (w *Writer) mergeWord(v uint64, k int) {
	off := uint(w.n & 7)
	w.data[len(w.data)-1] |= byte(v >> (56 + off))
	if rest := k - int(8-off); rest > 0 {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v<<(8-off))
		w.data = append(w.data, b[:(rest+7)/8]...)
	}
	w.n += k
}

// WriteBytes appends 8*len(b) bits.
func (w *Writer) WriteBytes(b []byte) {
	for _, x := range b {
		w.WriteUint(uint64(x), 8)
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// String finalizes the writer into an immutable String. The writer may
// continue to be used; the returned value is a snapshot.
func (w *Writer) String() String {
	d := make([]byte, len(w.data))
	copy(d, w.data)
	return String{data: d, n: w.n}
}

// ResetInto redirects the writer to assemble its next String inside buf's
// storage, starting empty. A caller that carves disjoint regions out of one
// slab — with full slice expressions, buf[k:k:k+size], so appends cannot
// bleed into a neighboring region — builds many Strings with a single
// allocation. Writing past the region's capacity falls back to a fresh
// allocation: still correct, just no longer zero-copy.
func (w *Writer) ResetInto(buf []byte) {
	w.data, w.n = buf[:0], 0
}

// TakeString finalizes the writer into a String that takes ownership of the
// writer's storage without copying, and resets the writer to empty. The
// writer remains usable; its next write allocates (or reuses the buffer of
// a following ResetInto). The certificate hot paths pair it with ResetInto
// so framing a batch costs one slab allocation instead of one per String.
func (w *Writer) TakeString() String {
	s := String{data: w.data, n: w.n}
	w.data, w.n = nil, 0
	return s
}

// Reader consumes a String sequentially. Reads past the end return an error
// rather than panicking: decoded labels come from (possibly adversarial)
// peers and must be rejected, not crash the verifier.
type Reader struct {
	s   String
	pos int
}

// NewReader returns a Reader positioned at the first bit of s.
func NewReader(s String) *Reader { return &Reader{s: s} }

// Reset repositions the reader at the first bit of s. It lets decode hot
// paths keep value Readers in reused flat scratch instead of allocating one
// per (lane, port).
func (r *Reader) Reset(s String) {
	r.s, r.pos = s, 0
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (byte, error) {
	if r.pos >= r.s.n {
		return 0, fmt.Errorf("bitstring: read past end at bit %d", r.pos)
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b, nil
}

// ReadUint consumes width bits as an unsigned integer.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitstring: invalid read width %d", width)
	}
	if r.Remaining() < width {
		return 0, fmt.Errorf("bitstring: need %d bits, have %d", width, r.Remaining())
	}
	var v uint64
	pos, rem := r.pos, width
	for rem > 0 {
		avail := 8 - (pos & 7)
		k := avail
		if rem < k {
			k = rem
		}
		chunk := (r.s.data[pos>>3] >> uint(avail-k)) & (0xFF >> (8 - uint(k)))
		v = v<<uint(k) | uint64(chunk)
		pos += k
		rem -= k
	}
	r.pos = pos
	return v, nil
}

// ReadInt consumes a sign bit plus width magnitude bits.
func (r *Reader) ReadInt(width int) (int64, error) {
	sign, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	mag, err := r.ReadUint(width)
	if err != nil {
		return 0, err
	}
	if sign == 1 {
		return -int64(mag), nil
	}
	return int64(mag), nil
}

// ReadString consumes n bits as a sub-string (byte-wise, via Slice).
func (r *Reader) ReadString(n int) (String, error) {
	if r.Remaining() < n {
		return String{}, fmt.Errorf("bitstring: need %d bits, have %d", n, r.Remaining())
	}
	if n <= 0 {
		return String{}, nil
	}
	out := r.s.Slice(r.pos, r.pos+n)
	r.pos += n
	return out, nil
}

// ReadStringInto consumes n bits like ReadString but assembles the result
// inside buf when its capacity suffices, so a decode loop that unframes many
// sub-certificates can hold them all in one reused slab. The returned
// String aliases buf and is valid only until buf's next reuse; content and
// padding are identical to ReadString's. A too-small buf degrades to the
// allocating path.
func (r *Reader) ReadStringInto(n int, buf []byte) (String, error) {
	if r.Remaining() < n {
		return String{}, fmt.Errorf("bitstring: need %d bits, have %d", n, r.Remaining())
	}
	if n <= 0 {
		return String{}, nil
	}
	nb := (n + 7) / 8
	if cap(buf) < nb {
		return r.ReadString(n)
	}
	d := buf[:nb]
	start, off := r.pos>>3, uint(r.pos&7)
	if off == 0 {
		copy(d, r.s.data[start:start+nb])
	} else {
		for i := 0; i < nb; i++ {
			b := r.s.data[start+i] << off
			if start+i+1 < len(r.s.data) {
				b |= r.s.data[start+i+1] >> (8 - off)
			}
			d[i] = b
		}
	}
	if rem := uint(n & 7); rem != 0 {
		d[nb-1] &= byte(0xFF) << (8 - rem)
	}
	r.pos += n
	return String{data: d, n: n}, nil
}
