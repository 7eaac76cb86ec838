package core

import (
	"math"
	"testing"
)

// streamParityQuery exercises WHERE pushdown, a probabilistic constraint,
// and an expected-sum objective in one evaluation.
const streamParityQuery = `SELECT PACKAGE(*) FROM stocks WHERE price <= 80 SUCH THAT
	SUM(price) <= 250 AND
	SUM(gain) >= -4 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

// parityProbQuery summarizes the probability objective's scenarios (the
// bank's objective cursor) as well as a constraint's.
const parityProbQuery = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	COUNT(*) BETWEEN 1 AND 5 AND
	SUM(gain) >= -20 WITH PROBABILITY >= 0.6
	MAXIMIZE PROBABILITY OF SUM(gain) >= 1`

// parityGrowQuery never validates feasible, so SummarySearch grows M from
// InitialM to MaxM and re-runs greedy selection at every size.
const parityGrowQuery = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= 12 WITH PROBABILITY >= 0.9
	MAXIMIZE EXPECTED SUM(gain)`

// parityIteration is one recorded (M, Z, feasible, objective bits) row of
// an iteration trace.
type parityIteration struct {
	m, z      int
	feasible  bool
	objective uint64
}

// parityOutcomes was recorded from materialized scenario sets (every
// value of the N×M matrices generated up front, then folded) before
// SummarySearch became streaming-only; all worker counts agreed. Floats are
// kept as their IEEE-754 bits so the comparison is exact.
var parityOutcomes = []struct {
	query      string
	x          []float64
	objective  uint64
	m, z       int
	feasible   bool
	surpluses  []uint64
	iterations []parityIteration
}{
	{
		query:     easyQuery,
		x:         []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0},
		objective: 0x402d666666666667, // 14.700000000000001
		m:         10,
		z:         1,
		feasible:  true,
		surpluses: []uint64{0x3fc9999999999998},
		iterations: []parityIteration{
			{10, 1, true, 0x402d666666666667},
		},
	},
	{
		query:     streamParityQuery,
		x:         []float64{0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0},
		objective: 0x4029333333333334, // 12.600000000000001
		m:         10,
		z:         1,
		feasible:  true,
		surpluses: []uint64{0x3fc9999999999998},
		iterations: []parityIteration{
			{10, 1, true, 0x4029333333333334},
		},
	},
	{
		query:     parityProbQuery,
		x:         []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0},
		objective: 0x3fef8d4fdf3b645a, // 0.986
		m:         10,
		z:         1,
		feasible:  true,
		surpluses: []uint64{0x3fd999999999999a},
		iterations: []parityIteration{
			{10, 1, true, 0x3fc47ae147ae147b},
			{10, 1, true, 0x3fef8d4fdf3b645a},
		},
	},
	{
		query:     parityGrowQuery,
		x:         []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0},
		objective: 0x402d666666666667, // 14.700000000000001
		m:         60,
		z:         1,
		feasible:  false,
		surpluses: []uint64{0xbfbfbe76c8b43958},
		iterations: []parityIteration{
			{10, 1, false, 0x402d666666666667},
			{10, 1, false, 0x402d666666666667},
			{10, 1, false, 0x402d666666666667},
			{10, 1, false, 0x402d666666666667},
			{10, 1, false, 0x402d666666666667},
			{20, 1, false, 0x402d666666666667},
			{20, 1, false, 0x402d666666666667},
			{20, 1, false, 0x402d666666666667},
			{20, 1, false, 0x402d666666666667},
			{20, 1, false, 0x402d666666666667},
			{20, 1, false, 0x402d666666666667},
			{30, 1, false, 0x402d666666666667},
			{30, 1, false, 0x402d666666666667},
			{30, 1, false, 0x402d666666666667},
			{30, 1, false, 0x402d666666666667},
			{30, 1, false, 0x402d666666666667},
			{30, 1, false, 0x402d666666666667},
			{40, 1, false, 0x402d666666666667},
			{40, 1, false, 0x402d666666666667},
			{40, 1, false, 0x402d666666666667},
			{40, 1, false, 0x402d666666666667},
			{40, 1, false, 0x402d666666666667},
			{40, 1, false, 0x402d666666666667},
			{50, 1, false, 0x402d666666666667},
			{50, 1, false, 0x402d666666666667},
			{50, 1, false, 0x402d666666666667},
			{50, 1, false, 0x402d666666666667},
			{50, 1, false, 0x402d666666666667},
			{60, 1, false, 0x402d666666666667},
			{60, 1, false, 0x402d666666666667},
			{60, 1, false, 0x402d666666666667},
			{60, 1, false, 0x402d666666666667},
			{60, 1, false, 0x402d666666666667},
		},
	},
}

// TestStreamedMatchesMaterialized is the end-to-end bit-parity gate of the
// streaming pipeline: for every worker count, SummarySearch (portfolio
// N=14, smallOptions(11)) must return the package, objective, (M, Z,
// feasible), surpluses and iteration trace that the materialized path
// produced, bit for bit.
func TestStreamedMatchesMaterialized(t *testing.T) {
	for qi, want := range parityOutcomes {
		for _, workers := range []int{1, 2, 8, -1} {
			opts := smallOptions(11)
			opts.Parallelism = workers
			sol, err := SummarySearch(portfolioSILP(t, 14, want.query), opts)
			if err != nil {
				t.Fatalf("query %d workers=%d: %v", qi, workers, err)
			}
			if len(sol.X) != len(want.x) {
				t.Fatalf("query %d workers=%d: len(X) = %d, want %d", qi, workers, len(sol.X), len(want.x))
			}
			for i := range want.x {
				if sol.X[i] != want.x[i] {
					t.Fatalf("query %d workers=%d: X[%d] = %v, want %v (must be bit-identical)",
						qi, workers, i, sol.X[i], want.x[i])
				}
			}
			if got := math.Float64bits(sol.Objective); got != want.objective {
				t.Fatalf("query %d workers=%d: objective bits %#x, want %#x", qi, workers, got, want.objective)
			}
			if sol.M != want.m || sol.Z != want.z || sol.Feasible != want.feasible {
				t.Fatalf("query %d workers=%d: (M,Z,feasible)=(%d,%d,%v), want (%d,%d,%v)",
					qi, workers, sol.M, sol.Z, sol.Feasible, want.m, want.z, want.feasible)
			}
			if len(sol.Surpluses) != len(want.surpluses) {
				t.Fatalf("query %d workers=%d: %d surpluses, want %d", qi, workers, len(sol.Surpluses), len(want.surpluses))
			}
			for i := range want.surpluses {
				if got := math.Float64bits(sol.Surpluses[i]); got != want.surpluses[i] {
					t.Fatalf("query %d workers=%d: surplus[%d] bits %#x, want %#x", qi, workers, i, got, want.surpluses[i])
				}
			}
			if len(sol.Iterations) != len(want.iterations) {
				t.Fatalf("query %d workers=%d: %d iterations, want %d", qi, workers, len(sol.Iterations), len(want.iterations))
			}
			for i, w := range want.iterations {
				it := sol.Iterations[i]
				got := parityIteration{it.M, it.Z, it.Feasible, math.Float64bits(it.Objective)}
				if got != w {
					t.Fatalf("query %d workers=%d: iteration %d = %+v, want %+v", qi, workers, i, got, w)
				}
			}
		}
	}
}
