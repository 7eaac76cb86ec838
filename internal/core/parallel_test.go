package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// galaxySILP builds a Galaxy-shaped instance (Table 3): n sky regions whose
// petromag_r reading carries Normal noise on even tuples and Shifted-Pareto
// (α = 1, no closed-form mean) noise on odd ones, plus an independent Normal
// petromag_g band. The stochastic EXPECTED SUM objective spans both
// attributes, so the §5.4 objective-range probe realizes a two-term inner
// function over every tuple.
func galaxySILP(t *testing.T, n int) *translate.SILP {
	t.Helper()
	rel := relation.New("galaxy", n)
	base := make([]float64, n)
	r, g := make([]dist.Dist, n), make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		base[i] = 5 + 10*float64((i*7919)%1000)/1000
		if i%2 == 0 {
			r[i] = dist.Normal{Mu: base[i], Sigma: 2}
		} else {
			r[i] = dist.Shifted{Off: base[i], D: dist.Pareto{Sigma: 1, Alpha: 1}}
		}
		g[i] = dist.Normal{Mu: base[i] + 1, Sigma: 1 + float64(i%3)}
	}
	if err := rel.AddDet("base_r", base); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("petromag_r", &relation.IndependentVG{AttrID: 11, Dists: r}); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("petromag_g", &relation.IndependentVG{AttrID: 12, Dists: g}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(5), 100)
	q := spaql.MustParse(`SELECT PACKAGE(*) FROM galaxy SUCH THAT
		COUNT(*) BETWEEN 5 AND 10 AND
		SUM(petromag_r) <= 80 WITH PROBABILITY >= 0.9
		MINIMIZE EXPECTED SUM(petromag_r + 0.5*petromag_g)`)
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return silp
}

// TestParallelValidationBitIdentical asserts the tentpole determinism
// guarantee: sharded validation returns exactly the sequential results for
// any worker count (feasibility, objective, surpluses, CI half-widths, and
// the §5.4 ε′ bound, whose objective-range probe is sharded too). Each row
// also pins its sequential answer to bits recorded from the original
// single-goroutine probe and per-value stream allocation, so the realization
// kernel is checked against that arithmetic, not only against itself.
func TestParallelValidationBitIdentical(t *testing.T) {
	type recorded struct {
		eps, obj  uint64
		surpluses []uint64
	}
	rows := []struct {
		name string
		silp func(*testing.T) *translate.SILP
		x    func(n int) []float64
		want recorded
	}{
		{
			name: "portfolio",
			silp: func(t *testing.T) *translate.SILP { return portfolioSILP(t, 20, easyQuery) },
			x: func(n int) []float64 {
				x := make([]float64, n)
				for i := 0; i < n; i += 2 {
					x[i] = float64(1 + i%3)
				}
				return x
			},
			want: recorded{eps: 0x4033c08785bb75ab, obj: 0x403ab33333333334, surpluses: []uint64{0x3fc98c802b3a52a0}},
		},
		{
			name: "galaxy",
			silp: func(t *testing.T) *translate.SILP { return galaxySILP(t, 3000) },
			x: func(n int) []float64 {
				x := make([]float64, n)
				for i := 0; i < n; i += 375 {
					x[i] = 1
				}
				return x
			},
			want: recorded{eps: 0x4040a5c8852898cc, obj: 0x40610559aa32fc40, surpluses: []uint64{0xbfe932ef155baa29}},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			silp := row.silp(t)
			x := row.x(silp.N)
			opts := smallOptions(3)
			opts.ValidationM = 5003 // odd, so shards are uneven
			seq, err := Validate(context.Background(), silp, x, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := row.want
			if got := math.Float64bits(seq.EpsUpper); got != w.eps {
				t.Errorf("EpsUpper bits %#x (%v), recorded %#x (%v)", got, seq.EpsUpper, w.eps, math.Float64frombits(w.eps))
			}
			if got := math.Float64bits(seq.Objective); got != w.obj {
				t.Errorf("Objective bits %#x (%v), recorded %#x (%v)", got, seq.Objective, w.obj, math.Float64frombits(w.obj))
			}
			if got := surplusBits(seq); !slices.Equal(got, w.surpluses) {
				t.Errorf("Surpluses bits %#x, recorded %#x", got, w.surpluses)
			}
			for _, workers := range []int{1, 2, 8, -1} {
				po := *opts
				po.Parallelism = workers
				par, err := Validate(context.Background(), silp, x, &po)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if par.Feasible != seq.Feasible {
					t.Fatalf("workers=%d: feasible %v, want %v", workers, par.Feasible, seq.Feasible)
				}
				if par.Objective != seq.Objective {
					t.Fatalf("workers=%d: objective %v, want %v (must be bit-identical)", workers, par.Objective, seq.Objective)
				}
				if got, want := math.Float64bits(par.EpsUpper), math.Float64bits(seq.EpsUpper); got != want {
					t.Fatalf("workers=%d: EpsUpper %v, want %v (must be bit-identical)", workers, par.EpsUpper, seq.EpsUpper)
				}
				for k := range seq.Surpluses {
					if par.Surpluses[k] != seq.Surpluses[k] {
						t.Fatalf("workers=%d: surplus[%d] %v, want %v", workers, k, par.Surpluses[k], seq.Surpluses[k])
					}
					if par.CIHalf[k] != seq.CIHalf[k] {
						t.Fatalf("workers=%d: CIHalf[%d] %v, want %v", workers, k, par.CIHalf[k], seq.CIHalf[k])
					}
				}
			}
		})
	}
}

func surplusBits(v *Validation) []uint64 {
	out := make([]uint64, len(v.Surpluses))
	for k, s := range v.Surpluses {
		out[k] = math.Float64bits(s)
	}
	return out
}

// TestParallelSummarySearchBitIdentical runs the full algorithm at several
// worker counts: the parallel engine must not change any answer.
func TestParallelSummarySearchBitIdentical(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	seq, err := SummarySearch(silp, smallOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opts := smallOptions(9)
		opts.Parallelism = workers
		par, err := SummarySearch(silp, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Feasible != seq.Feasible || par.Objective != seq.Objective ||
			par.M != seq.M || par.Z != seq.Z {
			t.Fatalf("workers=%d: (feasible,obj,M,Z)=(%v,%v,%d,%d), want (%v,%v,%d,%d)",
				workers, par.Feasible, par.Objective, par.M, par.Z,
				seq.Feasible, seq.Objective, seq.M, seq.Z)
		}
		for i := range seq.X {
			if par.X[i] != seq.X[i] {
				t.Fatalf("workers=%d: package differs at tuple %d", workers, i)
			}
		}
	}
}

// TestParallelNaiveBitIdentical covers the SAA baseline's parallel scenario
// generation path.
func TestParallelNaiveBitIdentical(t *testing.T) {
	silp := portfolioSILP(t, 10, easyQuery)
	seq, err := Naive(silp, smallOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions(4)
	opts.Parallelism = 4
	par, err := Naive(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Feasible != seq.Feasible || par.Objective != seq.Objective || par.M != seq.M {
		t.Fatalf("parallel Naive diverged: (%v,%v,%d) vs (%v,%v,%d)",
			par.Feasible, par.Objective, par.M, seq.Feasible, seq.Objective, seq.M)
	}
}

// TestSummarySearchCtxCancellation starts a long evaluation and cancels it:
// the evaluation must return promptly with the context's error, even if a
// MILP solve is in flight (the solver polls the cancel channel per node).
func TestSummarySearchCtxCancellation(t *testing.T) {
	silp := portfolioSILP(t, 40, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 2000 AND
		SUM(gain) >= 500 WITH PROBABILITY >= 0.99
		MAXIMIZE EXPECTED SUM(gain)`)
	opts := &Options{
		Seed:        1,
		ValidationM: 200000, // large M̂ so validation alone is slow
		InitialM:    50,
		IncrementM:  50,
		MaxM:        1000,
		Parallelism: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := SummarySearchCtx(ctx, silp, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSummarySearchCtxDeadline covers the deadline path end to end.
func TestSummarySearchCtxDeadline(t *testing.T) {
	silp := portfolioSILP(t, 40, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 2000 AND
		SUM(gain) >= 500 WITH PROBABILITY >= 0.99
		MAXIMIZE EXPECTED SUM(gain)`)
	opts := &Options{
		Seed:        1,
		ValidationM: 200000,
		InitialM:    50,
		IncrementM:  50,
		MaxM:        1000,
		Parallelism: 2,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SummarySearchCtx(ctx, silp, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline expiry took %v, want prompt return", elapsed)
	}
}
