package engine

import (
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// The engine half of the congestion axis (see core/congestion.go for the
// model). WithMultiplicity(m) lands here: the validated entry points wrap
// the scheme in a capScheme, whose Certs output satisfies the port-class
// contract, so executors route and gather exactly as before. Executors
// read the cap back through Multiplicity to meter the structural
// distinct-message count (Stats.DistinctMessages) without inspecting
// payloads.

// capScheme caps a randomized scheme's per-round message multiplicity. Its
// label path transforms the certificate vector — natively via
// core.CappedRPLS when the scheme degrades itself, by core.CapReplicate
// otherwise — and delegates everything else. The executors prepare the
// replication shape as the inner scheme's nodes plus a CapReplicate of
// each node's strings, and the native shape as core.LabelNodes over this
// label path: merged class messages are the one wire format no prepared
// node reads. Deterministic schemes are never wrapped: they broadcast
// their label on every port already, satisfying every cap.
type capScheme struct {
	inner  Scheme
	capped core.CappedRPLS // non-nil when the underlying RPLS degrades natively
	m      int
}

// withCap wraps s to respect multiplicity cap m. m <= 0 (uncapped) and
// deterministic schemes return s unchanged, so the classic engine is the
// degenerate point of the axis, bit for bit. The cap applies once per
// trial to whole strings, before any sharding: a capped t-round scheme
// replicates its class strings and the shard layout then splits them, so
// every round of one port carries a shard of the same string. Native
// degradation (core.CappedRPLS) stays single-round: a sharded scheme is
// no FromRPLS adapter, so it takes the CapReplicate path.
func withCap(s Scheme, m int) Scheme {
	if m <= 0 || s.Deterministic() {
		return s
	}
	w := capScheme{inner: s, m: m}
	if r, ok := AsRPLS(s); ok {
		if cr, ok := r.(core.CappedRPLS); ok {
			w.capped = cr
		}
	}
	return w
}

// Multiplicity reports the message-multiplicity cap a scheme runs under:
// m >= 1 for a capped scheme, 0 for the classic unconstrained round.
func Multiplicity(s Scheme) int {
	if w, ok := s.(capScheme); ok {
		return w.m
	}
	return 0
}

func (w capScheme) Name() string                                { return w.inner.Name() }
func (w capScheme) Label(c *graph.Config) ([]core.Label, error) { return w.inner.Label(c) }
func (w capScheme) Deterministic() bool                         { return false }
func (w capScheme) OneSided() bool                              { return w.inner.OneSided() }

func (w capScheme) Certs(view core.View, own core.Label, rng *prng.Rand) []core.Cert {
	if w.capped != nil {
		return w.capped.CapCerts(w.m, view, own, rng)
	}
	return core.CapReplicate(w.inner.Certs(view, own, rng), w.m)
}

// Decide routes to the native CapDecide when the scheme degrades itself:
// merged class messages are a different wire format than unicast
// certificates, so the unicast Decide cannot read them. The CapReplicate
// fallback keeps the unicast format (a replicated certificate is still a
// well-formed certificate), so the inner Decide applies unchanged.
func (w capScheme) Decide(view core.View, own core.Label, received []core.Cert) bool {
	if w.capped != nil {
		return w.capped.CapDecide(w.m, view, own, received)
	}
	return w.inner.Decide(view, own, received)
}

// distinctCount is the structural distinct-message count of one node in
// one round: the number of payload classes the scheme GUARANTEES, not the
// number of payloads that happened to differ. A deterministic scheme
// broadcasts its label (one class); a capped scheme mints at most m; an
// unconstrained randomized scheme may use every port. Structural counting
// is what makes the counter conserved and byte-identical across executors,
// parallelism, and lanes without comparing payload bytes on the hot path.
//
//pls:hotpath
func distinctCount(det bool, mult, deg int) int64 {
	if deg == 0 {
		return 0
	}
	d := deg
	if det {
		d = 1
	} else if mult > 0 && mult < deg {
		d = mult
	}
	return int64(d)
}
