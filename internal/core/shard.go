package core

import (
	"rpls/internal/bitstring"
)

// Multi-round verification (the t-PLS space–time tradeoff).
//
// The paper's second headline result is that verification time buys proof
// bandwidth: a scheme with verification complexity κ can spread its strings
// over t rounds, sending only ⌈κ/t⌉ bits per port per round (sharpened by
// Patt-Shamir & Perry and nearly resolved by Filtser & Fischer in the t-PLS
// model). Any one-round scheme becomes a t-round scheme by slicing each
// per-port string into t round-shards and folding the reassembled strings
// through the original decision at the end; engine.Shard runs that
// construction, and this file fixes its layout.
//
// The shard layout is fixed and self-describing: for a base string of L
// bits, the shard width is s = ShardWidth(L, t) = ⌈L/t⌉ and round r carries
// bits [r·s, min((r+1)·s, L)). Every shard but possibly the last is exactly
// s bits, rounds past ⌈L/s⌉ carry empty strings (so t > κ is legal and the
// late rounds are free), and concatenating the shards in round order
// reconstructs the base string bit for bit — no padding, no length field.
// The receiver therefore needs no per-round bookkeeping beyond appending
// what arrived, and the final decision is the unmodified base decision.

// ShardWidth is the per-round shard width for a base string of `bits` bits
// spread over `rounds` rounds: ⌈bits/rounds⌉, and 0 for an empty string.
// It is computed as (bits−1)/rounds + 1 so that no round count, however
// large, overflows.
func ShardWidth(bits, rounds int) int {
	if bits <= 0 || rounds <= 0 {
		return 0
	}
	return (bits-1)/rounds + 1
}

// Shard returns round r's slice of the base string under the fixed layout:
// bits [r·s, (r+1)·s) for s = ShardWidth(base.Len(), rounds), clamped to
// the string — empty for rounds past the content.
func Shard(base bitstring.String, round, rounds int) bitstring.String {
	s := ShardWidth(base.Len(), rounds)
	return base.Slice(round*s, (round+1)*s)
}
