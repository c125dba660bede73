// Package field implements arithmetic over prime fields GF(p) and the
// polynomial fingerprints at the heart of every randomized certificate in
// the paper.
//
// Lemma A.1 views a λ-bit string a = a₀a₁…a_{λ−1} as the polynomial
// A(x) = a₀ + a₁x + … + a_{λ−1}x^{λ−1} over GF(p) for a prime 3λ < p < 6λ,
// and certifies equality by exchanging (x, A(x)) for a uniform x. Two
// distinct strings agree on at most λ−1 of the p > 3λ points, so the
// one-sided error is below 1/3. This package provides the prime selection,
// the Horner evaluation, and a generalized error knob (choose p > λ/ε for
// per-test error ε) supporting the paper's observation that all schemes are
// oblivious to the confidence parameter.
package field

import (
	"fmt"
	"math/bits"
	"sync"

	"rpls/internal/bitstring"
	"rpls/internal/prng"
)

// MulMod returns a*b mod m without overflow for any 64-bit operands.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a%m, b%m)
	_, rem := bits.Div64(hi, lo, m)
	return rem
}

// AddMod returns (a + b) mod m without overflow.
func AddMod(a, b, m uint64) uint64 {
	a %= m
	b %= m
	if a >= m-b {
		return a - (m - b)
	}
	return a + b
}

// PowMod returns a^e mod m by square-and-multiply.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return result
}

// millerRabinBases is a deterministic witness set for all 64-bit integers
// (Sinclair 2011).
var millerRabinBases = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime, deterministically for all uint64.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n%p == 0 {
			return n == p
		}
	}
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
witness:
	for _, a := range millerRabinBases {
		x := PowMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < r-1; i++ {
			x = MulMod(x, x, n)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// NextPrime returns the smallest prime >= n. It panics on overflow, which
// cannot occur for the field sizes used by the schemes (p = O(n·λ)).
func NextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n&1 == 0 {
		n++
	}
	for {
		if IsPrime(n) {
			return n
		}
		if n > n+2 {
			panic("field: prime search overflow")
		}
		n += 2
	}
}

// primeForLengthCache memoizes PrimeForLength. Schemes call it once per
// Certs and once per Decide — i.e. per node per trial — but only ever for
// the handful of distinct label lengths an experiment produces, so the
// Miller-Rabin search used to dominate estimator-heavy profiles (60% of
// E15) while computing the same few primes over and over.
var primeForLengthCache sync.Map // clamped lambda (int) -> p (uint64)

// PrimeForLength returns a prime p with 3λ < p < 6λ as in Lemma A.1.
// Bertrand's postulate guarantees one exists for λ >= 1; for tiny λ the
// range is padded so the field is never trivially small. Results are
// memoized: the prime is a pure function of λ, and hot verification loops
// ask for the same lengths on every trial.
func PrimeForLength(lambda int) uint64 {
	if lambda < 2 {
		lambda = 2
	}
	if v, ok := primeForLengthCache.Load(lambda); ok {
		return v.(uint64)
	}
	lo := uint64(3*lambda) + 1
	p := NextPrime(lo)
	if p >= uint64(6*lambda) && lambda > 2 {
		// Cannot happen by Bertrand (there is a prime in (3λ, 6λ)), but the
		// invariant is cheap to defend.
		panic(fmt.Sprintf("field: no prime in (3*%d, 6*%d)", lambda, lambda))
	}
	primeForLengthCache.Store(lambda, p)
	return p
}

// PrimeForError returns a prime p > λ/ε, so a polynomial fingerprint of a
// λ-bit string errs with probability < ε. This is the ε-obliviousness knob
// of §1: confidence is tuned purely through the field size.
func PrimeForError(lambda int, eps float64) uint64 {
	if lambda < 1 {
		lambda = 1
	}
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("field: error rate %v out of (0,1)", eps))
	}
	target := float64(lambda) / eps
	if target < 5 {
		target = 5
	}
	return NextPrime(uint64(target) + 1)
}

// Poly is a polynomial over GF(p) whose coefficients are the bits of a
// string: coefficient i is bit i.
type Poly struct {
	bits bitstring.String
	p    uint64
}

// NewPoly interprets s as a polynomial over GF(p).
func NewPoly(s bitstring.String, p uint64) Poly {
	return Poly{bits: s, p: p}
}

// barrettM returns the Barrett constant m = ⌊(2^64−1)/p⌋. For every
// z < 2^64, q = ⌊z·m / 2^64⌋ underestimates ⌊z/p⌋ by at most 1, so z − q·p
// lands in [z mod p, z mod p + p) and one conditional subtraction finishes
// the reduction — replacing the hardware division that would otherwise
// serialize the Horner recurrence. Exactness on the whole 64-bit range is
// what lets Eval's kernel reduce only every few steps (see lazySteps).
func barrettM(p uint64) uint64 { return ^uint64(0) / p }

// barrettReduce returns z mod p given m = barrettM(p), for any z < 2^64.
func barrettReduce(z, p, m uint64) uint64 {
	q, _ := bits.Mul64(z, m)
	r := z - q*p
	if r >= p {
		r -= p
	}
	return r
}

// Eval returns the polynomial evaluated at x via Horner's rule, treating
// bit 0 as the constant coefficient: A(x) = a₀ + a₁x + … .
//
// Every scheme in this module uses p = O(n·λ) ≪ 2³¹, so the fast paths with
// native 64-bit products and Barrett reduction cover them — the kernel for
// strings of at least evalChunkMin bits, a one-bit-at-a-time walk below
// it; the 128-bit path keeps the function correct for arbitrary moduli.
func (poly Poly) Eval(x uint64) uint64 {
	p := poly.p
	n := poly.bits.Len()
	if p < 1<<31 {
		x %= p
		m := barrettM(p)
		if n >= evalChunkMin {
			return poly.evalKernel(x, p, m)
		}
		acc := uint64(0)
		// Coefficients high to low, one storage byte at a time: bit index i
		// sits in byte i>>3 at position 7−(i&7).
		for b := (n - 1) >> 3; b >= 0; b-- {
			hi := 8*b + 7
			if hi > n-1 {
				hi = n - 1
			}
			byteVal := poly.bits.ByteAt(b)
			for i := hi; i >= 8*b; i-- {
				bit := uint64(byteVal>>(7-uint(i&7))) & 1
				acc = barrettReduce(acc*x+bit, p, m)
			}
		}
		return acc
	}
	acc := uint64(0)
	for i := n - 1; i >= 0; i-- {
		acc = MulMod(acc, x, p)
		if poly.bits.Bit(i) == 1 {
			acc = AddMod(acc, 1, p)
		}
	}
	return acc
}

// evalChunkMin is the coefficient count from which Eval's kernel pays for
// its setup (a 16-entry table and three reduced powers of x per
// evaluation point); shorter strings take the one-bit-at-a-time walks.
const evalChunkMin = 64

// lazySteps[b] is the number of Horner steps the kernel may run between
// reductions for a modulus of bit length b: k = ⌊64/b⌋ − 1. A reduced
// accumulator is below p, and each unreduced step acc·x⁴ + c with x⁴, c < p
// multiplies that bound by p, so after k steps it stays below
// p^(k+1) ≤ 2^(b(k+1)) ≤ 2^64, where barrettReduce is still exact. A table,
// so no call divides.
var lazySteps = func() (t [65]int) {
	for b := 1; b <= 64; b++ {
		t[b] = 64/b - 1
	}
	return t
}()

// evalKernel is Horner's rule four coefficients per step, for p < 2³¹:
// acc ← acc·x⁴ + t[s] for every storage nibble s, highest coefficients
// first, where t[s] is the value of the nibble's four coefficients (bits
// are stored MSB-first, so s's high bit is the lowest coefficient). The
// accumulator is reduced only every lazySteps[bits.Len64(p)] steps, and
// once at the end. The table is built from x, x² and x³ with 15 additions,
// each followed by one conditional subtraction. The top byte needs no
// head walk: bits past Len are zero in storage (ByteAt), and leading zero
// coefficients leave Horner's result unchanged. The arithmetic is exact,
// so the result equals the bit-at-a-time walk's.
//
// The kernel is one dependent chain on purpose: a step is a multiply and an
// add, so it runs at a low instruction rate. Forms that keep more work in
// flight — four interleaved nibble chains, or one chain over whole bytes
// fed by two table loads — were 1.8–3× faster on an idle core, but slowed
// by up to 1.7× while the host was loaded, against 1.05× for this chain
// (2-vCPU KVM guest, Xeon model 207), so their throughput swung from run to
// run.
func (poly Poly) evalKernel(x, p, m uint64) uint64 {
	var t [16]uint64
	x2 := barrettReduce(x*x, p, m)
	for i, c := range [4]uint64{barrettReduce(x2*x, p, m), x2, x, 1} {
		h := 1 << i
		for s := 0; s < h; s++ {
			v := t[s] + c
			if v >= p {
				v -= p
			}
			t[h+s] = v
		}
	}
	x4 := barrettReduce(x2*x2, p, m)
	k := lazySteps[bits.Len64(p)]
	s := poly.bits
	acc := uint64(0)
	c := k
	for j := (s.Len()+7)>>3 - 1; j >= 0; j-- {
		b := s.ByteAt(j)
		acc = acc*x4 + t[b&15]
		if c--; c == 0 {
			acc, c = barrettReduce(acc, p, m), k
		}
		acc = acc*x4 + t[b>>4]
		if c--; c == 0 {
			acc, c = barrettReduce(acc, p, m), k
		}
	}
	return barrettReduce(acc, p, m)
}

// EvalMany evaluates the polynomial at every xs[i], writing A(xs[i]) into
// out[i]. Strings of at least evalChunkMin bits, and moduli of 2³¹ or
// more, run Eval once per point: the kernel, four coefficients per step,
// beats one bit walk shared by every point. Below that, where its setup
// outweighs the walk, the coefficient bits are walked once for all points,
// so the per-lane chains overlap in the CPU pipeline instead. Results are
// exactly Eval(xs[i]) — same field, same arithmetic — at any lane count.
func (poly Poly) EvalMany(xs, out []uint64) {
	if len(out) < len(xs) {
		panic(fmt.Sprintf("field: EvalMany out[%d] shorter than xs[%d]", len(out), len(xs)))
	}
	out = out[:len(xs)]
	p := poly.p
	n := poly.bits.Len()
	perPoint := p >= 1<<31 || n >= evalChunkMin
	for _, x := range xs {
		// Unreduced points are legal for Eval; keep the batched form
		// bit-identical without mutating the caller's slice.
		perPoint = perPoint || x >= p
	}
	if perPoint {
		for l, x := range xs {
			out[l] = poly.Eval(x)
		}
		return
	}
	m := barrettM(p)
	for l := range out {
		out[l] = 0
	}
	for b := (n - 1) >> 3; b >= 0; b-- {
		hi := 8*b + 7
		if hi > n-1 {
			hi = n - 1
		}
		byteVal := poly.bits.ByteAt(b)
		for i := hi; i >= 8*b; i-- {
			bit := uint64(byteVal>>(7-uint(i&7))) & 1
			for l := range out {
				out[l] = barrettReduce(out[l]*xs[l]+bit, p, m)
			}
		}
	}
}

// Fingerprint is an evaluation point with the value of a string's polynomial
// there: the pair (x, A(x)) exchanged by Lemma A.1's protocol.
type Fingerprint struct {
	X, Y uint64
	P    uint64 // field modulus, fixed by the scheme, not transmitted
}

// NewFingerprint draws a uniform x in GF(p) with rng and evaluates s there.
func NewFingerprint(s bitstring.String, p uint64, rng *prng.Rand) Fingerprint {
	x := rng.Uint64n(p)
	return Fingerprint{X: x, Y: NewPoly(s, p).Eval(x), P: p}
}

// Matches reports whether the string t is consistent with the fingerprint,
// i.e. whether t's polynomial passes through (X, Y).
func (f Fingerprint) Matches(t bitstring.String) bool {
	return NewPoly(t, f.P).Eval(f.X) == f.Y
}

// Bits returns the number of bits needed to transmit the fingerprint:
// 2·⌈log₂ p⌉ (the modulus is part of the scheme description, not the
// message). This is the quantity Definition 2.1 measures.
func (f Fingerprint) Bits() int {
	return 2 * bitstring.UintBits(f.P-1)
}

// Encode serializes the fingerprint into w using 2·⌈log₂ p⌉ bits.
func (f Fingerprint) Encode(w *bitstring.Writer) {
	width := bitstring.UintBits(f.P - 1)
	w.WriteUint(f.X, width)
	w.WriteUint(f.Y, width)
}

// DecodeFingerprint reads a fingerprint produced by Encode for modulus p.
func DecodeFingerprint(r *bitstring.Reader, p uint64) (Fingerprint, error) {
	width := bitstring.UintBits(p - 1)
	x, err := r.ReadUint(width)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("fingerprint x: %w", err)
	}
	y, err := r.ReadUint(width)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("fingerprint y: %w", err)
	}
	if x >= p || y >= p {
		return Fingerprint{}, fmt.Errorf("fingerprint out of field range (p=%d)", p)
	}
	return Fingerprint{X: x, Y: y, P: p}, nil
}
