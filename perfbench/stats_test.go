package main

import (
	"path/filepath"
	"testing"

	"spq/internal/obs"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		q, want float64
	}{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

// TestTailQuantile checks the rule "highest percentile with at least ten
// samples beyond it".
func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"empty", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {30, 35}}, 0, 100, 15},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 0, 100, 50},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 0, 100, 80},
		{"touching", []interval{{10, 20}, {20, 30}}, 0, 100, 20},
		{"unsorted", []interval{{50, 70}, {0, 10}, {60, 80}}, 0, 100, 40},
		{"clipped", []interval{{-10, 10}, {90, 120}}, 0, 100, 20},
		{"outside", []interval{{100, 120}, {-5, 0}}, 0, 100, 0},
	}
	for _, c := range cases {
		if got := unionLength(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionLength = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSelfUS checks that a span's self time subtracts the union of its
// children's intervals: parallel children overlap, and their plain sum
// would exceed the time they cover.
func TestSelfUS(t *testing.T) {
	root := &obs.SpanData{Name: "query", StartUnixUS: 1000, DurationUS: 100, Children: []*obs.SpanData{
		{Name: "a", StartUnixUS: 1010, DurationUS: 30},
		{Name: "b", StartUnixUS: 1030, DurationUS: 30}, // overlaps a by 10
		{Name: "c", StartUnixUS: 1090, DurationUS: 50}, // runs 40 past the root's end
	}}
	if got := selfUS(root); got != 40 {
		t.Fatalf("selfUS = %d, want 40 (100 minus the 60 its children cover)", got)
	}
	leaf := &obs.SpanData{Name: "leaf", StartUnixUS: 5, DurationUS: 7}
	if got := selfUS(leaf); got != 7 {
		t.Fatalf("selfUS of a leaf = %d, want its duration 7", got)
	}
}

func TestSpanSum(t *testing.T) {
	s := newSpanSum()
	s.add(&obs.SpanData{Name: "bench", StartUnixUS: 0, DurationUS: 100, Children: []*obs.SpanData{
		{Name: "parse", StartUnixUS: 0, DurationUS: 5},
		{Name: "summarysearch", StartUnixUS: 10, DurationUS: 80, Children: []*obs.SpanData{
			{Name: "solve", StartUnixUS: 10, DurationUS: 50},
			{Name: "validate", StartUnixUS: 60, DurationUS: 20, Attrs: map[string]string{"m_hat": "2000"}},
		}},
	}})
	s.add(&obs.SpanData{Name: "query", StartUnixUS: 0, DurationUS: 40, Attrs: map[string]string{"result_cache": "hit"}})
	if s.queries != 2 || s.rootUS != 140 || s.selfUS != 15+40 {
		t.Fatalf("queries=%d rootUS=%d selfUS=%d, want 2, 140, 55", s.queries, s.rootUS, s.selfUS)
	}
	if s.phaseUS["solve"] != 50 || s.phaseUS["validate"] != 20 || s.phaseUS["parse"] != 5 {
		t.Fatalf("phase sums %v", s.phaseUS)
	}
	if s.validateScenarios != 2000 || len(s.hitUS) != 1 || s.hitUS[0] != 40 {
		t.Fatalf("validateScenarios=%d hitUS=%v", s.validateScenarios, s.hitUS)
	}
}

// TestAnswerBook checks that a request answered differently within a run,
// or differently from an earlier run kept on disk, is reported.
func TestAnswerBook(t *testing.T) {
	path := filepath.Join(t.TempDir(), "answers.json")
	b, err := openBook(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.record("Q1", "aa"); err != nil {
		t.Fatal(err)
	}
	if err := b.record("Q1", "aa"); err != nil {
		t.Fatalf("same answer twice: %v", err)
	}
	if err := b.record("Q1", "bb"); err == nil {
		t.Fatal("a different answer to the same request was accepted")
	}
	if err := b.save(); err != nil {
		t.Fatal(err)
	}
	later, err := openBook(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := later.record("Q1", "cc"); err == nil {
		t.Fatal("an answer differing from an earlier run was accepted")
	}
	if err := later.record("Q2", "dd"); err != nil {
		t.Fatal(err)
	}
	if b.digest() == later.digest() {
		t.Fatal("digests of different answer sets agree")
	}
}
