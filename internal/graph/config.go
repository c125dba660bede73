package graph

import (
	"fmt"

	"rpls/internal/bitstring"
	"rpls/internal/prng"
)

// Flag bits used in State.Flags by the concrete schemes.
const (
	FlagLeader uint64 = 1 << iota // node claims to be the leader
	FlagSource                    // node is s in s-t problems
	FlagTarget                    // node is t in s-t problems
	FlagMarked                    // generic mark
)

// State is the full local input of a node (§2.1): its identity, and all
// problem-specific data the predicates of §5 read. Fields unused by a given
// predicate are left at their zero values and excluded from its state
// encoding by the scheme.
type State struct {
	ID      uint64  // node identity Id(v); unique across the configuration
	Parent  int     // port number (1-based) of the parent edge; 0 = root/none
	Weights []int64 // edge weights indexed by port-1; nil for unweighted
	Color   int64   // generic scalar: a color, a k parameter, a value
	Flags   uint64  // FlagLeader, FlagSource, ...
	Data    []byte  // arbitrary payload (Unif predicate, opaque inputs)
}

// Clone returns a deep copy.
func (s State) Clone() State {
	c := s
	if s.Weights != nil {
		c.Weights = make([]int64, len(s.Weights))
		copy(c.Weights, s.Weights)
	}
	if s.Data != nil {
		c.Data = make([]byte, len(s.Data))
		copy(c.Data, s.Data)
	}
	return c
}

// Encode serializes the state into w. The encoding is self-delimiting so
// the universal scheme (Lemma 3.3) can pack whole configurations.
func (s State) Encode(w *bitstring.Writer) {
	w.WriteUint(s.ID, 64)
	w.WriteUint(uint64(s.Parent), 16)
	w.WriteInt(s.Color, 63)
	w.WriteUint(s.Flags, 64)
	w.WriteUint(uint64(len(s.Weights)), 16)
	for _, wt := range s.Weights {
		w.WriteInt(wt, 63)
	}
	w.WriteUint(uint64(len(s.Data)), 32)
	w.WriteBytes(s.Data)
}

// EncodedBits returns the size of Encode's output in bits; this is the k of
// Lemma 3.3 and Corollary 3.4 for the configuration at hand.
func (s State) EncodedBits() int {
	return 64 + 16 + 64 + 64 + 16 + 64*len(s.Weights) + 32 + 8*len(s.Data)
}

// DecodeState reads a state written by Encode.
func DecodeState(r *bitstring.Reader) (State, error) {
	var s State
	var err error
	if s.ID, err = r.ReadUint(64); err != nil {
		return s, fmt.Errorf("state id: %w", err)
	}
	parent, err := r.ReadUint(16)
	if err != nil {
		return s, fmt.Errorf("state parent: %w", err)
	}
	s.Parent = int(parent)
	if s.Color, err = r.ReadInt(63); err != nil {
		return s, fmt.Errorf("state color: %w", err)
	}
	if s.Flags, err = r.ReadUint(64); err != nil {
		return s, fmt.Errorf("state flags: %w", err)
	}
	nw, err := r.ReadUint(16)
	if err != nil {
		return s, fmt.Errorf("state weight count: %w", err)
	}
	if !fits(r, nw, 64) {
		return s, fmt.Errorf("state weight count %d exceeds the %d bits left", nw, r.Remaining())
	}
	if nw > 0 {
		s.Weights = make([]int64, nw)
		for i := range s.Weights {
			if s.Weights[i], err = r.ReadInt(63); err != nil {
				return s, fmt.Errorf("state weight %d: %w", i, err)
			}
		}
	}
	nd, err := r.ReadUint(32)
	if err != nil {
		return s, fmt.Errorf("state data length: %w", err)
	}
	if !fits(r, nd, 8) {
		return s, fmt.Errorf("state data length %d exceeds the %d bits left", nd, r.Remaining())
	}
	if nd > 0 {
		s.Data = make([]byte, nd)
		for i := range s.Data {
			b, err := r.ReadUint(8)
			if err != nil {
				return s, fmt.Errorf("state data byte %d: %w", i, err)
			}
			s.Data[i] = byte(b)
		}
	}
	return s, nil
}

// fits reports whether count items of at least bitsPer bits each fit in
// the bits r has left. Decoders check every length field with it before
// sizing anything from it, so a hostile length is rejected, not allocated.
func fits(r *bitstring.Reader, count uint64, bitsPer int) bool {
	return count <= uint64(r.Remaining())/uint64(bitsPer)
}

// Config is a configuration Gs = (G, s): a graph together with a state
// assignment (§2.1).
type Config struct {
	G      *Graph
	States []State
}

// NewConfig pairs a graph with default states: ID(v) = v+1, everything else
// zero. IDs are distinct as the model requires.
func NewConfig(g *Graph) *Config {
	states := make([]State, g.N())
	for v := range states {
		states[v].ID = uint64(v + 1)
	}
	return &Config{G: g, States: states}
}

// Clone deep-copies the configuration (graph and states).
func (c *Config) Clone() *Config {
	states := make([]State, len(c.States))
	for i, s := range c.States {
		states[i] = s.Clone()
	}
	return &Config{G: c.G.Clone(), States: states}
}

// AssignRandomIDs replaces identities with distinct pseudo-random 63-bit
// values. Schemes must not depend on IDs being small or consecutive.
func (c *Config) AssignRandomIDs(rng *prng.Rand) {
	used := make(map[uint64]bool, len(c.States))
	for v := range c.States {
		for {
			id := rng.Uint64() >> 1
			if id != 0 && !used[id] {
				used[id] = true
				c.States[v].ID = id
				break
			}
		}
	}
}

// Validate checks configuration invariants: valid graph, one state per node,
// distinct IDs, weight arrays matching degrees where present, and symmetric
// edge weights (an edge weight is part of both endpoint states in §5.1).
func (c *Config) Validate() error {
	if err := c.G.Validate(); err != nil {
		return err
	}
	if len(c.States) != c.G.N() {
		return fmt.Errorf("config: %d states for %d nodes", len(c.States), c.G.N())
	}
	ids := make(map[uint64]int, len(c.States))
	for v, s := range c.States {
		if prev, dup := ids[s.ID]; dup {
			return fmt.Errorf("config: duplicate ID %d at nodes %d and %d", s.ID, prev, v)
		}
		ids[s.ID] = v
		if s.Parent < 0 || s.Parent > c.G.Degree(v) {
			return fmt.Errorf("config: node %d parent port %d out of range (degree %d)",
				v, s.Parent, c.G.Degree(v))
		}
		if s.Weights != nil && len(s.Weights) != c.G.Degree(v) {
			return fmt.Errorf("config: node %d has %d weights for degree %d",
				v, len(s.Weights), c.G.Degree(v))
		}
	}
	// Weight symmetry.
	for v := range c.States {
		if c.States[v].Weights == nil {
			continue
		}
		for i, h := range c.G.adjView(v) {
			if c.States[h.To].Weights == nil {
				return fmt.Errorf("config: weights present at %d but not at neighbor %d", v, h.To)
			}
			if c.States[v].Weights[i] != c.States[h.To].Weights[h.RevPort-1] {
				return fmt.Errorf("config: asymmetric weight on edge {%d,%d}", v, h.To)
			}
		}
	}
	return nil
}

// SetEdgeWeight records w as the weight of edge {u, v} in both endpoint
// states, allocating weight arrays on demand.
func (c *Config) SetEdgeWeight(u, v int, w int64) error {
	pu, ok := c.G.PortTo(u, v)
	if !ok {
		return errNoEdge{u, v}
	}
	pv, _ := c.G.PortTo(v, u)
	c.ensureWeights(u)
	c.ensureWeights(v)
	c.States[u].Weights[pu-1] = w
	c.States[v].Weights[pv-1] = w
	return nil
}

// EdgeWeight returns the weight of the edge at port p of u, or 0 if the
// configuration is unweighted.
func (c *Config) EdgeWeight(u, p int) int64 {
	if c.States[u].Weights == nil {
		return 0
	}
	return c.States[u].Weights[p-1]
}

func (c *Config) ensureWeights(v int) {
	if c.States[v].Weights == nil {
		c.States[v].Weights = make([]int64, c.G.Degree(v))
	}
}

// MaxStateBits returns max over nodes of the encoded state size: the k(n)
// of Lemma 3.3.
func (c *Config) MaxStateBits() int {
	max := 0
	for _, s := range c.States {
		if b := s.EncodedBits(); b > max {
			max = b
		}
	}
	return max
}

// Encode serializes the whole configuration: n, the adjacency structure
// with ports, then each state. This is the representation R of the
// universal scheme (Appendix B).
func (c *Config) Encode() bitstring.String {
	var w bitstring.Writer
	n := c.G.N()
	w.WriteUint(uint64(n), 32)
	for v := 0; v < n; v++ {
		deg := c.G.Degree(v)
		w.WriteUint(uint64(deg), 16)
		for _, h := range c.G.adjView(v) {
			w.WriteUint(uint64(h.To), 32)
			w.WriteUint(uint64(h.RevPort), 16)
		}
	}
	for _, s := range c.States {
		s.Encode(&w)
	}
	return w.String()
}

// DecodeConfig reads a configuration written by Encode, validating
// structural integrity (adversarial labels may carry arbitrary bytes).
func DecodeConfig(s bitstring.String) (*Config, error) {
	r := bitstring.NewReader(s)
	n64, err := r.ReadUint(32)
	if err != nil {
		return nil, fmt.Errorf("config size: %w", err)
	}
	n := int(n64)
	if n > 1<<20 {
		return nil, fmt.Errorf("config: implausible node count %d", n)
	}
	if !fits(r, n64, 16) {
		return nil, fmt.Errorf("config: node count %d exceeds the %d bits left", n, r.Remaining())
	}
	g := &Graph{adj: make([][]Half, n)}
	for v := 0; v < n; v++ {
		deg64, err := r.ReadUint(16)
		if err != nil {
			return nil, fmt.Errorf("node %d degree: %w", v, err)
		}
		deg := int(deg64)
		if deg >= n && !(n == 0 && deg == 0) {
			return nil, fmt.Errorf("node %d: degree %d too large for %d nodes", v, deg, n)
		}
		if !fits(r, deg64, 48) {
			return nil, fmt.Errorf("node %d: degree %d exceeds the %d bits left", v, deg, r.Remaining())
		}
		g.adj[v] = make([]Half, deg)
		for i := 0; i < deg; i++ {
			to, err := r.ReadUint(32)
			if err != nil {
				return nil, fmt.Errorf("node %d port %d: %w", v, i+1, err)
			}
			rev, err := r.ReadUint(16)
			if err != nil {
				return nil, fmt.Errorf("node %d port %d revport: %w", v, i+1, err)
			}
			g.adj[v][i] = Half{To: int(to), RevPort: int(rev)}
		}
	}
	states := make([]State, n)
	for v := 0; v < n; v++ {
		st, err := DecodeState(r)
		if err != nil {
			return nil, fmt.Errorf("node %d state: %w", v, err)
		}
		states[v] = st
	}
	cfg := &Config{G: g, States: states}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("decoded config invalid: %w", err)
	}
	return cfg, nil
}
