package main

import "testing"

// On a nested span tree the self times partition the root's duration.
func TestSelfTimesSumToRoot(t *testing.T) {
	// root [0,100): a [10,40) with child a1 [15,25); b [50,90) with
	// children b1 [50,60) and b2 [70,85), and b2 with child b2x [71,72).
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 90},
		{ID: 5, Parent: 4, Name: "b1", Start: 50, End: 60},
		{ID: 6, Parent: 4, Name: "b2", Start: 70, End: 85},
		{ID: 7, Parent: 6, Name: "b2x", Start: 71, End: 72},
	}
	SelfTimes(spans)
	want := map[string]int64{"root": 30, "a": 20, "a1": 10, "b": 15, "b1": 10, "b2": 14, "b2x": 1}
	var sum int64
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
		sum += s.Self
	}
	if sum != spans[0].Duration() {
		t.Errorf("self times sum to %d, root lasted %d", sum, spans[0].Duration())
	}
}

// Spans recorded through the tracer nest by call order.
func TestTracerNesting(t *testing.T) {
	tr := &Tracer{}
	tr.SetOp(3)
	outer := tr.Begin("outer")
	_ = tr.Time("inner", 4, func() error { return nil })
	tr.End(outer, 1, 2, 5)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	o, in := tr.spans[0], tr.spans[1]
	if o.Parent != 0 || in.Parent != o.ID || in.Op != 3 || in.Items != 4 || o.A != 2 || o.B != 5 {
		t.Errorf("spans %+v, %+v: want inner nested in outer, op 3", o, in)
	}
	if in.Start < o.Start || in.End > o.End {
		t.Errorf("inner [%d,%d) not inside outer [%d,%d)", in.Start, in.End, o.Start, o.End)
	}
}
