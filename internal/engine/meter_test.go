package engine

import (
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
)

// TestMeterShardsMatchesShardByShard pins the t-round metering rule: an
// L-bit string metered as t shards equals metering its materialized
// core.Shard pieces one by one, for every L in 0..130 and t in 1..L+3,
// starting from an empty and from a non-empty Stats.
func TestMeterShardsMatchesShardByShard(t *testing.T) {
	for L := 0; L <= 130; L++ {
		base := bitstring.FromBytes(make([]byte, (L+7)/8)).Truncate(L)
		for rounds := 1; rounds <= L+3; rounds++ {
			for _, start := range []Stats{{}, {TotalWireBits: 7, MaxCertBits: 5, MaxPortBits: 5}} {
				got, want := start, start
				got.meterShards(L, rounds)
				for r := 0; r < rounds; r++ {
					want.meter(core.Shard(base, r, rounds).Len())
				}
				if got != want {
					t.Fatalf("L=%d t=%d from %+v: meterShards %+v, shard by shard %+v", L, rounds, start, got, want)
				}
			}
		}
	}
}
