package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"rpls/internal/obs"
)

// Span is one call the benchmark made into a layer of the program during
// the traced run. Spans are recorded from the benchmark's own files only,
// around public calls; nothing inside the program is instrumented.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // operation the span belongs to; 0 is set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End−Start minus the children's durations
	// Items is the number of like units the span covered (nodes, labels,
	// fingerprints), so a per-unit cost is (End−Start)/Items.
	Items int `json:"items,omitempty"`
	// A and B annotate a span: for campaign.cell they are the cell's rounds
	// and multiplicity.
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
}

// Duration is the span's wall time in nanoseconds.
func (s Span) Duration() int64 { return s.End - s.Start }

// Tracer keeps the spans of one run in memory until the run ends. It is
// used from one goroutine. A nil *Tracer records nothing, so the untraced
// run and the traced run share their code.
type Tracer struct {
	spans []Span
	open  []int // indices into spans of the spans not yet ended
	op    int
}

// SetOp sets the operation id that later spans carry.
func (t *Tracer) SetOp(op int) {
	if t != nil {
		t.op = op
	}
}

// Begin opens a span nested in the innermost open one and returns its
// handle for End.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: int64(obs.Clock())})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// End closes the span h, which must be the innermost open one, recording
// the number of units it covered and its annotations.
func (t *Tracer) End(h, items, a, b int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != h {
		panic(fmt.Sprintf("perfbench: span %d ended out of order", h))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[h]
	s.End, s.Items, s.A, s.B = int64(obs.Clock()), items, a, b
}

// Time runs f inside a span covering items units.
func (t *Tracer) Time(name string, items int, f func() error) error {
	h := t.Begin(name)
	err := f()
	t.End(h, items, 0, 0)
	return err
}

// SelfTimes fills every span's Self field: its duration minus the
// durations of its direct children. Spans are recorded on one goroutine,
// so children never overlap and the self times of a tree sum to its
// root's duration.
func SelfTimes(spans []Span) {
	index := make(map[int]int, len(spans))
	for i := range spans {
		index[spans[i].ID] = i
		spans[i].Self = spans[i].Duration()
	}
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			spans[p].Self -= s.Duration()
		}
	}
}

// Named returns the spans called name, in recording order.
func (t *Tracer) Named(name string) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// perUnit returns the median of each named span's duration per unit, in
// the given unit of nanoseconds (1e3 for µs, 1e6 for ms); 0 when the run
// recorded no such span.
func (t *Tracer) perUnit(name string, unit float64) float64 {
	var xs []float64
	for _, s := range t.Named(name) {
		items := s.Items
		if items < 1 {
			items = 1
		}
		xs = append(xs, float64(s.Duration())/float64(items)/unit)
	}
	return median(xs)
}

// WriteFile computes self times and writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	SelfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no values. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
