package main

import (
	"context"
	"math"
	"testing"
)

// TestSetupDeterministic checks that two set-ups at one seed register
// identical means and give identical answers. spq.DB derives each table's
// means stream from the number of tables registered before it, so this
// holds only because buildEnv registers in sorted order; Galaxy's Pareto
// attributes have no closed-form mean and are estimated from that stream.
func TestSetupDeterministic(t *testing.T) {
	small := map[string]solveSpec{"galaxy": galaxyScan, "portfolio": portfolioSolve}
	for name, spec := range small {
		spec.n = 40
		spec.validationM = 1000
		t.Run(name, func(t *testing.T) {
			tables := spec.tables()
			type outcome struct {
				means  map[string][]float64
				digest string
			}
			once := func() outcome {
				e, eng, _, err := spec.setup(tables)
				if err != nil {
					t.Fatal(err)
				}
				out := outcome{means: map[string][]float64{}}
				for _, table := range e.tables {
					rel, _ := e.db.Table(table)
					for _, attr := range rel.StochNames() {
						m, err := rel.Means(attr)
						if err != nil {
							t.Fatal(err)
						}
						out.means[table+"."+attr] = append([]float64(nil), m...)
					}
				}
				reqs, err := spec.requests(e.inst, 7)
				if err != nil {
					t.Fatal(err)
				}
				book, _ := openBook("")
				rs := newRunStats(nil, book)
				for _, r := range reqs {
					spec.one(context.Background(), eng, r, false, rs, map[string]*solveFirst{})
				}
				if rs.failed > 0 {
					t.Fatalf("%d failures: %v", rs.failed, rs.failures)
				}
				out.digest = book.digest()
				return out
			}
			a, b := once(), once()
			if len(a.means) == 0 {
				t.Fatal("no stochastic means registered")
			}
			for k, ma := range a.means {
				mb := b.means[k]
				if len(ma) != len(mb) {
					t.Fatalf("%s: %d means, then %d", k, len(ma), len(mb))
				}
				for i := range ma {
					if math.Float64bits(ma[i]) != math.Float64bits(mb[i]) {
						t.Fatalf("%s[%d]: mean %v, then %v", k, i, ma[i], mb[i])
					}
				}
			}
			if a.digest != b.digest {
				t.Fatalf("answer digest %s, then %s", a.digest, b.digest)
			}
		})
	}
}

// TestOpSeqDeterministic checks that a workload seed fixes the serve-mixed
// operation stream, that every tenth operation is a delta, that deltas
// cycle through the tables, alternate between price and volatility and
// write back generated values, and that another seed draws another stream.
func TestOpSeqDeterministic(t *testing.T) {
	tables := []string{"a", "b"}
	cols := map[string]map[string][]float64{
		"a": {"price": {1, 2, 3}, "volatility": {0.1, 0.2, 0.3}},
		"b": {"price": {4, 5}, "volatility": {0.4, 0.5}},
	}
	draw := func(seed uint64) []op {
		q := serveMixed.newOpSeq(seed, 384, tables, cols)
		out := make([]op, 2000)
		for i := range out {
			out[i] = q.take()
		}
		return out
	}
	x, y, z := draw(3), draw(3), draw(4)
	same := true
	deltas := 0
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("op %d differs at one seed: %+v vs %+v", i, x[i], y[i])
		}
		if x[i] != z[i] {
			same = false
		}
		if o := x[i]; o.delta != (i%10 == 9) {
			t.Fatalf("op %d: delta=%t", i, o.delta)
		} else if o.delta {
			want := "price"
			if deltas%2 == 1 {
				want = "volatility"
			}
			if o.col != want || o.table != tables[(deltas/2)%2] {
				t.Fatalf("delta %d updates %s.%s, want %s.%s", deltas, o.table, o.col, tables[(deltas/2)%2], want)
			}
			if o.value != cols[o.table][o.col][o.tuple] {
				t.Fatalf("delta %d writes %v, not the generated value", deltas, o.value)
			}
			deltas++
		} else if o.req < 0 || o.req >= 384 {
			t.Fatalf("op %d draws pool index %d", i, o.req)
		}
	}
	if same {
		t.Fatal("seeds 3 and 4 drew the same stream")
	}
}
