package core

import (
	"math"
	"testing"
	"time"

	"spq/internal/dist"
	"spq/internal/milp"
	"spq/internal/relation"
	"spq/internal/rng"
)

// Tests for time/iteration budget handling — the machinery behind the
// paper's 4-hour cutoff protocol ("when the time limit expires, we
// interrupt CPLEX and get the best solution found so far").

func TestTinyTimeLimitReturnsGracefully(t *testing.T) {
	silp := portfolioSILP(t, 20, easyQuery)
	opts := smallOptions(1)
	opts.TimeLimit = time.Millisecond
	start := time.Now()
	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil {
		t.Fatal("nil solution under time pressure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("time-limited run took %v", elapsed)
	}
}

// TestUnconstrainedLimitReturnsBestEffort pins the budget contract at x(0),
// the first MILP SummarySearch solves. Three tuples of price 100 under a
// 260 budget relax to (0.6, 1, 1); rounding that overshoots the budget, so
// a one-node budget ends the solve with no incumbent. The evaluation must
// come back as the empty best-effort solution that reports the cut, not as
// an error.
func TestUnconstrainedLimitReturnsBestEffort(t *testing.T) {
	rel := relation.New("stocks", 3)
	if err := rel.AddDet("price", []float64{100, 100, 100}); err != nil {
		t.Fatal(err)
	}
	gains := []dist.Dist{dist.Normal{Mu: 1, Sigma: 0.5}, dist.Normal{Mu: 2, Sigma: 0.5}, dist.Normal{Mu: 3, Sigma: 0.5}}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(7), 200)
	silp := buildSILP(t, rel, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 260 AND
		SUM(gain) >= -5 WITH PROBABILITY >= 0.8
		MAXIMIZE EXPECTED SUM(gain)`)
	opts := smallOptions(1)
	opts.SolverNodes = 1

	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatalf("budget-cut x(0) returned an error: %v", err)
	}
	if sol.Feasible || sol.X != nil || !math.IsInf(sol.EpsUpper, 1) {
		t.Fatalf("want the empty best-effort solution, got feasible=%v X=%v EpsUpper=%v", sol.Feasible, sol.X, sol.EpsUpper)
	}
	if !sol.HitLimit(opts) {
		t.Fatal("HitLimit does not report the budget cut")
	}
	if len(sol.Iterations) != 1 || sol.Iterations[0].SolverStatus != milp.StatusLimit || sol.MILPSolves != 1 {
		t.Fatalf("want one recorded x(0) solve cut by the limit, got %d solves, iterations %+v", sol.MILPSolves, sol.Iterations)
	}
}

func TestTinyTimeLimitNaive(t *testing.T) {
	silp := portfolioSILP(t, 20, easyQuery)
	opts := smallOptions(1)
	opts.TimeLimit = time.Millisecond
	start := time.Now()
	sol, err := Naive(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil {
		t.Fatal("nil solution under time pressure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("time-limited run took %v", elapsed)
	}
}

func TestIterationRecordsPopulated(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	sol, err := SummarySearch(silp, smallOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Iterations) == 0 {
		t.Fatal("no iteration records")
	}
	for i, it := range sol.Iterations {
		if it.M <= 0 {
			t.Fatalf("iteration %d has M=%d", i, it.M)
		}
		if it.Z < 1 {
			t.Fatalf("SummarySearch iteration %d has Z=%d", i, it.Z)
		}
		if len(it.Surpluses) != len(silp.ProbCons) {
			t.Fatalf("iteration %d has %d surpluses", i, len(it.Surpluses))
		}
	}
}

func TestNaiveIterationRecords(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	sol, err := Naive(silp, smallOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Iterations) == 0 {
		t.Fatal("no iteration records")
	}
	for i, it := range sol.Iterations {
		if it.Z != 0 {
			t.Fatalf("Naive iteration %d has Z=%d, want 0", i, it.Z)
		}
		if it.Coefficients <= 0 {
			t.Fatalf("iteration %d missing DILP size", i)
		}
	}
	// Naive DILP sizes grow with M across iterations.
	if len(sol.Iterations) >= 2 {
		first, last := sol.Iterations[0], sol.Iterations[len(sol.Iterations)-1]
		if last.M > first.M && last.Coefficients <= first.Coefficients {
			t.Fatalf("DILP did not grow with M: %d@M=%d vs %d@M=%d",
				first.Coefficients, first.M, last.Coefficients, last.M)
		}
	}
}

func TestMaxCSAItersBoundsWork(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	opts := smallOptions(7)
	opts.MaxCSAIters = 2
	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Per (M, Z) pair at most 2 validations; the run can still escalate M.
	perPair := map[[2]int]int{}
	for _, it := range sol.Iterations {
		perPair[[2]int{it.M, it.Z}]++
	}
	for pair, count := range perPair {
		if count > 2 {
			t.Fatalf("pair %v ran %d CSA iterations, cap was 2", pair, count)
		}
	}
}

func TestZeroOptionsUseDefaults(t *testing.T) {
	opts := (&Options{}).withDefaults()
	if opts.ValidationM != 10000 || opts.InitialM != 20 || opts.MaxM != 1000 {
		t.Fatalf("defaults wrong: %+v", opts)
	}
	if opts.IncrementM != opts.InitialM {
		t.Fatalf("IncrementM default should follow InitialM")
	}
	if !isInf(opts.Epsilon) {
		t.Fatalf("Epsilon default should be +Inf, got %v", opts.Epsilon)
	}
	if opts.SolverTime != 30*time.Second {
		t.Fatalf("SolverTime default = %v", opts.SolverTime)
	}
}

func isInf(f float64) bool { return f > 1e308 }
