package spq

import (
	"hash/fnv"
	"math"
	"testing"

	"spq/internal/core"
	"spq/internal/spaql"
	"spq/internal/translate"
	"spq/internal/workload"
)

// TestGoldenPortfolioQ1 pins one full SummarySearch evaluation of Portfolio
// Q1 (N=80, the benchmark options, seed 1) to the outcome recorded before
// the allocation-free branch-and-bound node path landed: validation
// feasibility, objective bits, final scenario count, total B&B nodes and
// simplex iterations across its MILP solves, and a fingerprint of the
// package. Ten MILPs with ~29k nodes between them run under it, so any
// drift in the search path shows here even where the package survives.
func TestGoldenPortfolioQ1(t *testing.T) {
	in := workload.Portfolio(workload.Config{N: 80, Seed: 42, MeansM: 500})
	q, ok := in.QueryByID("Q1")
	if !ok {
		t.Fatal("no Portfolio Q1")
	}
	parsed, err := spaql.Parse(q.SPaQL)
	if err != nil {
		t.Fatal(err)
	}
	silp, err := translate.Build(parsed, in.Table(q.Table), nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SummarySearch(silp, benchOptions(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, v := range sol.X {
		u := math.Float64bits(v)
		h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24),
			byte(u >> 32), byte(u >> 40), byte(u >> 48), byte(u >> 56)})
	}
	type outcome struct {
		feasible      bool
		objBits       uint64
		m             int
		solves, nodes int
		lpIters       int
		xHash         uint64
	}
	got := outcome{sol.Feasible, math.Float64bits(sol.Objective), sol.M, sol.MILPSolves, sol.MILPNodes, sol.LPIters, h.Sum64()}
	want := outcome{true, 0x3fd572639a994d00, 20, 10, 28780, 45177, 0xe761854d1dc90729}
	if got != want {
		t.Fatalf("Portfolio Q1 drifted from the recorded search:\n\tgot  %#v\n\twant %#v", got, want)
	}
}
