package field

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"

	"rpls/internal/bitstring"
	"rpls/internal/prng"
)

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 5: true, 7: true, 11: true, 13: true,
		17: true, 19: true, 23: true, 97: true, 101: true,
		0: false, 1: false, 4: false, 9: false, 15: false, 21: false,
		25: false, 49: false, 91: false, // 91 = 7*13
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIsPrimeKnownLarge(t *testing.T) {
	cases := map[uint64]bool{
		(1 << 61) - 1:                true,  // Mersenne prime
		(1 << 31) - 1:                true,  // Mersenne prime
		1_000_000_007:                true,  // common prime
		1_000_000_007 * 3:            false, // composite with large factor
		4294967295:                   false, // 2^32-1 = 3*5*17*257*65537
		18446744073709551557:         true,  // largest 64-bit prime
		18446744073709551615:         false, // 2^64-1
		2147483647 * 2147483647 >> 1: false,
	}
	for n, want := range cases {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17}, {90, 97},
	}
	for _, c := range cases {
		if got := NextPrime(c.in); got != c.want {
			t.Errorf("NextPrime(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPrimeForLengthInRange(t *testing.T) {
	for _, lambda := range []int{1, 2, 3, 5, 10, 64, 1000, 1 << 16} {
		p := PrimeForLength(lambda)
		if !IsPrime(p) {
			t.Errorf("PrimeForLength(%d) = %d is not prime", lambda, p)
		}
		if lambda >= 2 && (p <= uint64(3*lambda) || p >= uint64(6*lambda)) {
			t.Errorf("PrimeForLength(%d) = %d outside (3λ, 6λ)", lambda, p)
		}
	}
}

func TestPrimeForError(t *testing.T) {
	for _, c := range []struct {
		lambda int
		eps    float64
	}{{10, 1.0 / 3}, {100, 0.01}, {1000, 0.001}} {
		p := PrimeForError(c.lambda, c.eps)
		if !IsPrime(p) {
			t.Errorf("PrimeForError(%d, %v) = %d not prime", c.lambda, c.eps, p)
		}
		if float64(c.lambda)/float64(p) >= c.eps {
			t.Errorf("PrimeForError(%d, %v) = %d gives error %v >= eps",
				c.lambda, c.eps, p, float64(c.lambda)/float64(p))
		}
	}
}

func TestMulModAgainstWideMultiply(t *testing.T) {
	f := func(a, b uint64) bool {
		const m = 1_000_000_007
		want := (a % m) * (b % m) % m // fits: (1e9)^2 < 2^63
		return MulMod(a, b, m) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulModLargeModulus(t *testing.T) {
	// With modulus near 2^63 the naive product overflows; MulMod must not.
	m := uint64(9223372036854775783) // largest prime < 2^63
	a := m - 1
	b := m - 2
	// (m-1)(m-2) mod m = (−1)(−2) mod m = 2
	if got := MulMod(a, b, m); got != 2 {
		t.Errorf("MulMod((m-1),(m-2),m) = %d, want 2", got)
	}
}

func TestPowMod(t *testing.T) {
	cases := []struct{ a, e, m, want uint64 }{
		{2, 10, 1000, 24},
		{3, 0, 7, 1},
		{5, 1, 7, 5},
		{2, 61, (1 << 61) - 1, 1}, // Fermat: 2^(p-1) ≡ 1... actually 2^61 mod M61 = 2
	}
	// fix the last case properly: 2^61 mod (2^61 - 1) = 1... no: 2^61 = (2^61-1)+1 ≡ 1.
	cases[3].want = 1
	for _, c := range cases {
		if got := PowMod(c.a, c.e, c.m); got != c.want {
			t.Errorf("PowMod(%d,%d,%d) = %d, want %d", c.a, c.e, c.m, got, c.want)
		}
	}
}

func TestPolyEvalKnown(t *testing.T) {
	// bits 1,0,1 → A(x) = 1 + x². Over GF(7): A(3) = 1+9 = 10 ≡ 3.
	s := bitstring.FromBits([]byte{1, 0, 1})
	poly := NewPoly(s, 7)
	if got := poly.Eval(3); got != 3 {
		t.Errorf("A(3) = %d, want 3", got)
	}
	if got := poly.Eval(0); got != 1 {
		t.Errorf("A(0) = %d, want 1", got)
	}
}

func TestFingerprintEqualStringsAlwaysMatch(t *testing.T) {
	// One-sidedness (Lemma A.1): equal strings never produce a mismatch.
	rng := prng.New(8)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = rng.Bit()
		}
		s := bitstring.FromBits(bits)
		p := PrimeForLength(n)
		fp := NewFingerprint(s, p, rng)
		if !fp.Matches(s) {
			t.Fatalf("fingerprint of a string failed to match itself (n=%d)", n)
		}
	}
}

func TestFingerprintDistinctStringsErrorBelowThird(t *testing.T) {
	// Soundness: distinct λ-bit strings collide with probability < 1/3 when
	// p ∈ (3λ, 6λ). Empirically the rate should be well below 1/3.
	rng := prng.New(9)
	const lambda = 64
	const trials = 3000
	p := PrimeForLength(lambda)
	collisions := 0
	for trial := 0; trial < trials; trial++ {
		a := make([]byte, lambda)
		b := make([]byte, lambda)
		for i := range a {
			a[i] = rng.Bit()
			b[i] = rng.Bit()
		}
		// Force difference in at least one position.
		pos := rng.Intn(lambda)
		b[pos] = 1 - a[pos]
		sa, sb := bitstring.FromBits(a), bitstring.FromBits(b)
		fp := NewFingerprint(sa, p, rng)
		if fp.Matches(sb) {
			collisions++
		}
	}
	rate := float64(collisions) / trials
	if rate >= 1.0/3 {
		t.Errorf("collision rate %v >= 1/3", rate)
	}
}

func TestFingerprintAdversarialWorstCase(t *testing.T) {
	// Worst case: strings differing in exactly the high coefficient produce
	// polynomials differing by x^{λ−1}, which has λ−1 roots... only x=0 is a
	// root of x^{λ-1}, so collision happens only at x = 0: rate ≈ 1/p.
	// A denser disagreement pattern: a = 0^λ, b = 1^λ. A−B = -(1+x+...+x^{λ-1})
	// has at most λ−1 roots in GF(p); measure the exact collision count.
	const lambda = 32
	p := PrimeForLength(lambda)
	zero := bitstring.FromBits(make([]byte, lambda))
	ones := make([]byte, lambda)
	for i := range ones {
		ones[i] = 1
	}
	one := bitstring.FromBits(ones)
	pa, pb := NewPoly(zero, p), NewPoly(one, p)
	agree := 0
	for x := uint64(0); x < p; x++ {
		if pa.Eval(x) == pb.Eval(x) {
			agree++
		}
	}
	if agree > lambda-1 {
		t.Errorf("polynomials agree on %d points, bound is λ−1 = %d", agree, lambda-1)
	}
	if float64(agree)/float64(p) >= 1.0/3 {
		t.Errorf("agreement fraction %d/%d >= 1/3", agree, p)
	}
}

func TestFingerprintEncodeDecodeRoundTrip(t *testing.T) {
	rng := prng.New(10)
	s := bitstring.FromBits([]byte{1, 1, 0, 1, 0, 0, 1})
	p := PrimeForLength(s.Len())
	fp := NewFingerprint(s, p, rng)
	var w bitstring.Writer
	fp.Encode(&w)
	if w.Len() != fp.Bits() {
		t.Errorf("encoded length %d != Bits() %d", w.Len(), fp.Bits())
	}
	got, err := DecodeFingerprint(bitstring.NewReader(w.String()), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.X != fp.X || got.Y != fp.Y {
		t.Errorf("round trip: got (%d,%d), want (%d,%d)", got.X, got.Y, fp.X, fp.Y)
	}
}

func TestDecodeFingerprintRejectsOutOfField(t *testing.T) {
	var w bitstring.Writer
	p := uint64(11)
	width := bitstring.UintBits(p - 1) // 4 bits
	w.WriteUint(13, width)             // 13 >= 11: invalid
	w.WriteUint(3, width)
	if _, err := DecodeFingerprint(bitstring.NewReader(w.String()), p); err == nil {
		t.Error("decoding an out-of-field element should fail")
	}
}

func TestFingerprintBitsIsLogarithmic(t *testing.T) {
	// 2·⌈log₂ p⌉ with p < 6λ means certificate size ≈ 2(log₂ λ + 3).
	for _, lambda := range []int{16, 256, 4096, 1 << 16} {
		p := PrimeForLength(lambda)
		fp := Fingerprint{X: 0, Y: 0, P: p}
		maxBits := 2 * (bitstring.UintBits(uint64(lambda)) + 3)
		if fp.Bits() > maxBits {
			t.Errorf("λ=%d: fingerprint %d bits, want <= %d", lambda, fp.Bits(), maxBits)
		}
	}
}

func TestAddMod(t *testing.T) {
	m := uint64(9223372036854775783)
	if got := AddMod(m-1, m-1, m); got != m-2 {
		t.Errorf("AddMod(m-1, m-1, m) = %d, want m-2", got)
	}
	if got := AddMod(0, 0, 5); got != 0 {
		t.Errorf("AddMod(0,0,5) = %d", got)
	}
	if got := AddMod(7, 8, 5); got != 0 {
		t.Errorf("AddMod(7,8,5) = %d, want 0", got)
	}
}

// TestEvalManyMatchesEval pins the lane contract: EvalMany is bit-identical
// to per-point Eval at every lane count, for reduced and unreduced points,
// small and large moduli, and ragged string lengths.
func TestEvalManyMatchesEval(t *testing.T) {
	rng := prng.New(99)
	primes := []uint64{2, 7, 61, PrimeForLength(200), PrimeForLength(4096), NextPrime(1 << 40)}
	for _, p := range primes {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 200, 515} {
			raw := make([]byte, n)
			for i := range raw {
				raw[i] = rng.Bit()
			}
			s := bitstring.FromBits(raw)
			poly := NewPoly(s, p)
			for _, lanes := range []int{1, 2, 8, 64} {
				xs := make([]uint64, lanes)
				for l := range xs {
					if l%3 == 2 {
						xs[l] = rng.Uint64() // unreduced point
					} else {
						xs[l] = rng.Uint64n(p)
					}
				}
				out := make([]uint64, lanes)
				poly.EvalMany(xs, out)
				for l, x := range xs {
					if want := poly.Eval(x); out[l] != want {
						t.Fatalf("p=%d n=%d lanes=%d lane %d: EvalMany=%d Eval=%d (x=%d)",
							p, n, lanes, l, out[l], want, x)
					}
				}
			}
		}
	}
}

// TestEvalCacheMatchesEvalMany checks the cache against Poly.EvalMany for
// batches on both sides of minTableBatch, with two payloads alternating,
// over a tabled field and one just above maxTablePrime, where the cache
// must evaluate directly. Both payloads' tables stay held: each is built
// once, at its first tabled call.
func TestEvalCacheMatchesEvalMany(t *testing.T) {
	rng := prng.New(18)
	payload := func() bitstring.String {
		raw := make([]byte, 256)
		for i := range raw {
			raw[i] = rng.Bit()
		}
		return bitstring.FromBits(raw)
	}
	payloads := []bitstring.String{payload(), payload()}
	// held returns the first cell of the table the cache holds for (s, p),
	// nil when it holds none.
	held := func(c *EvalCache, s bitstring.String, p uint64) *uint64 {
		for _, e := range c.entries {
			if e.p == p && e.s.Equal(s) {
				return &e.table[0]
			}
		}
		return nil
	}
	for _, p := range []uint64{PrimeForLength(256), NextPrime(maxTablePrime + 1)} {
		var c EvalCache
		built := make([]*uint64, len(payloads))
		for round := 0; round < 3; round++ {
			for k, s := range payloads {
				for _, batch := range []int{1, 7, 8, 64} {
					xs := make([]uint64, batch)
					for i := range xs {
						xs[i] = rng.Uint64n(p)
					}
					got, want := make([]uint64, batch), make([]uint64, batch)
					c.EvalMany(s, p, xs, got)
					NewPoly(s, p).EvalMany(xs, want)
					for i := range xs {
						if got[i] != want[i] {
							t.Fatalf("p=%d payload %d batch %d point %d: cache %d, EvalMany %d", p, k, batch, i, got[i], want[i])
						}
					}
					table := held(&c, s, p)
					switch {
					case p > maxTablePrime:
						if table != nil {
							t.Fatalf("p=%d payload %d: an untabled field holds a table", p, k)
						}
					case batch < minTableBatch:
					case table == nil:
						t.Fatalf("p=%d payload %d batch %d: no table held after a tabled call", p, k, batch)
					case built[k] == nil:
						built[k] = table
					case built[k] != table:
						t.Fatalf("p=%d payload %d batch %d round %d: table rebuilt", p, k, batch, round)
					}
				}
			}
		}
		if p <= maxTablePrime && (built[0] == nil || built[1] == nil) {
			t.Fatalf("p=%d: a payload never built its table", p)
		}
	}
}

// TestPrimeForLengthCached checks the memo returns the same prime as a
// fresh search and that repeated calls are allocation-free after warmup.
func TestPrimeForLengthCached(t *testing.T) {
	for _, lambda := range []int{0, 1, 2, 3, 17, 100, 4096} {
		want := NextPrime(uint64(3*max(lambda, 2)) + 1)
		if got := PrimeForLength(lambda); got != want {
			t.Fatalf("PrimeForLength(%d) = %d, want %d", lambda, got, want)
		}
		if got := PrimeForLength(lambda); got != want {
			t.Fatalf("cached PrimeForLength(%d) = %d, want %d", lambda, got, want)
		}
	}
}

// refEval is the oracle for Eval: Horner's rule one coefficient at a time
// through MulMod and AddMod, sharing no code with the evaluation paths.
func refEval(s bitstring.String, p, x uint64) uint64 {
	acc := uint64(0)
	for i := s.Len() - 1; i >= 0; i-- {
		acc = AddMod(MulMod(acc, x, p), uint64(s.Bit(i)), p)
	}
	return acc
}

// onesAround returns content framed by 1 bits: lo of them before it and
// 17 after, so a constructor cutting content out that left stray bits past
// Len in its storage would change what a kernel reading whole bytes sees.
func onesAround(content []byte, lo int) bitstring.String {
	raw := make([]byte, lo+len(content)+17)
	for i := range raw {
		raw[i] = 1
	}
	copy(raw[lo:], content)
	return bitstring.FromBits(raw)
}

// TestEvalMatchesReference checks Eval and EvalMany against refEval at
// every length 0..600 — across the block, byte-padding, evalChunkMin and
// lazy-window boundaries — for small, scheme-sized, near-2³¹ and 128-bit
// moduli, at reduced and unreduced points, on strings cut by Truncate,
// Slice and ReadStringInto out of all-ones strings.
func TestEvalMatchesReference(t *testing.T) {
	rng := prng.New(15)
	fixed := []uint64{2, 3, 5, 7, 61, 65521, 1<<31 - 1, 2147483629, NextPrime(1 << 40)}
	for n := 0; n <= 600; n++ {
		content := make([]byte, n)
		for i := range content {
			content[i] = rng.Bit()
		}
		lo := 1 + rng.Intn(15)
		truncated := onesAround(content, 0).Truncate(n)
		sliced := onesAround(content, lo).Slice(lo, lo+n)
		r := bitstring.NewReader(onesAround(content, lo))
		if _, err := r.ReadString(lo); err != nil {
			t.Fatal(err)
		}
		read, err := r.ReadStringInto(n, bytes.Repeat([]byte{0xFF}, (n+7)/8+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range append([]uint64{PrimeForLength(n)}, fixed...) {
			xs := []uint64{0, 1, p - 1, rng.Uint64n(p), rng.Uint64n(p), p + rng.Uint64n(p), rng.Uint64()}
			want := make([]uint64, len(xs))
			for k, x := range xs {
				want[k] = refEval(truncated, p, x)
			}
			for name, s := range map[string]bitstring.String{"Truncate": truncated, "Slice": sliced, "ReadStringInto": read} {
				poly := NewPoly(s, p)
				for k, x := range xs {
					if got := poly.Eval(x); got != want[k] {
						t.Fatalf("%s n=%d p=%d: Eval(%d) = %d, want %d", name, n, p, x, got, want[k])
					}
				}
				for _, width := range []int{1, 2, 3, 5, 64} {
					pts := make([]uint64, width)
					for k := range pts {
						pts[k] = xs[(k+width)%len(xs)]
					}
					out := make([]uint64, width)
					poly.EvalMany(pts, out)
					for k := range pts {
						if w := want[(k+width)%len(xs)]; out[k] != w {
							t.Fatalf("%s n=%d p=%d width=%d: EvalMany point %d (x=%d) = %d, want %d",
								name, n, p, width, k, pts[k], out[k], w)
						}
					}
				}
			}
		}
	}
}

// TestBarrettReduceExact pins barrettReduce at the top of the 64-bit range
// and at the largest value the kernel's lazy window can hand it, p^(k+1)−1
// with k = lazySteps[b], for the smallest and largest prime of every
// modulus width b from 2 to 31.
func TestBarrettReduceExact(t *testing.T) {
	for b := 2; b <= 31; b++ {
		largest := uint64(1)<<b - 1
		for !IsPrime(largest) {
			largest--
		}
		for _, p := range []uint64{NextPrime(1 << (b - 1)), largest} {
			m := barrettM(p)
			k := lazySteps[bits.Len64(p)]
			pow := uint64(1)
			for i := 0; i <= k; i++ {
				hi, lo := bits.Mul64(pow, p)
				if hi != 0 {
					t.Fatalf("p=%d (width %d): p^%d exceeds 2^64, lazy window k=%d too wide", p, b, i+1, k)
				}
				pow = lo
			}
			for _, z := range []uint64{^uint64(0), pow - 1, pow - 2, p*p - 1, p, p - 1} {
				if got := barrettReduce(z, p, m); got != z%p {
					t.Errorf("barrettReduce(%d, %d) = %d, want %d", z, p, got, z%p)
				}
			}
		}
	}
}

// fuzzBits is the fuzzers' string: the first n bits of data, or all of
// them when n is out of range. Truncate zeroes the padding past n.
func fuzzBits(data []byte, n int) bitstring.String {
	if n < 0 || n > 8*len(data) {
		n = 8 * len(data)
	}
	return bitstring.FromBytes(data).Truncate(n)
}

// FuzzPolyEval checks Eval against refEval, and EvalMany on [x, x+p, x]
// against Eval, for fuzzer-chosen strings, points and moduli. The modulus
// is the next prime of a value clamped to [2, 2³¹+2¹⁰], so the kernel, the
// short-string walks and the 128-bit path above 2³¹ are all reached.
func FuzzPolyEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n int, pRaw, x uint64) {
		s := fuzzBits(data, n)
		p := NextPrime(min(max(pRaw, 2), 1<<31+1<<10))
		poly := NewPoly(s, p)
		want := poly.Eval(x)
		if ref := refEval(s, p, x); want != ref {
			t.Fatalf("n=%d p=%d: Eval(%d) = %d, reference %d", s.Len(), p, x, want, ref)
		}
		xs := []uint64{x, x + p, x}
		out := make([]uint64, len(xs))
		poly.EvalMany(xs, out)
		for k, xk := range xs {
			if e := poly.Eval(xk); out[k] != e {
				t.Fatalf("n=%d p=%d: EvalMany point %d (x=%d) = %d, Eval %d", s.Len(), p, k, xk, out[k], e)
			}
		}
	})
}

// FuzzDecodeFingerprint feeds DecodeFingerprint arbitrary bits under an
// arbitrary modulus. It must not panic, and what it accepts must be a
// field element pair whose Encode reproduces exactly the bits consumed.
func FuzzDecodeFingerprint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n int, p uint64) {
		s := fuzzBits(data, n)
		r := bitstring.NewReader(s)
		fp, err := DecodeFingerprint(r, p)
		if err != nil {
			return
		}
		if fp.X >= p || fp.Y >= p || fp.P != p {
			t.Fatalf("accepted (%d, %d) with P=%d outside GF(%d)", fp.X, fp.Y, fp.P, p)
		}
		var w bitstring.Writer
		fp.Encode(&w)
		if consumed := s.Truncate(s.Len() - r.Remaining()); !w.String().Equal(consumed) {
			t.Fatalf("Encode = %v, consumed %v", w.String(), consumed)
		}
	})
}
