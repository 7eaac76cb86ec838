package core

import (
	"spq/internal/scenario"
	"spq/internal/stream"
	"spq/internal/translate"
)

// objCK addresses the probability objective's scenario population in bank
// calls; 0..K-1 address the probabilistic constraints.
const objCK = -1

// scenarioBank is what CSA-Solve actually consumes from a scenario
// population: greedy selection by score and α-summarization. Neither needs
// a materialized N×M matrix — partitioning depends only on (M, seed), and
// scores/summaries fold tuple-wise — so the bank holds one streaming cursor
// per summarized expression and realizes values block-wise on demand.
// Cursors are immutable and address absolute scenario IDs, so growing M
// needs no bank state: the caller simply partitions a larger ID range.
type scenarioBank struct {
	r    *runner
	curs []*stream.ScenarioCursor
	obj  *stream.ScenarioCursor
}

// newBank creates the scenario population for one SummarySearch evaluation.
func (r *runner) newBank() *scenarioBank {
	b := &scenarioBank{r: r, curs: make([]*stream.ScenarioCursor, len(r.silp.ProbCons))}
	for k := range r.silp.ProbCons {
		b.curs[k] = r.silp.ConsCursor(k, r.optSrc, 0)
	}
	b.obj = r.silp.ObjCursor(r.optSrc, 0)
	return b
}

func (b *scenarioBank) cursor(ck int) *stream.ScenarioCursor {
	if ck == objCK {
		return b.obj
	}
	return b.curs[ck]
}

// Pick returns the ⌈α·|part|⌉ most favourable scenarios of part under the
// previous solution x (nil x → the partition's leading scenarios), exactly
// as scenario.Set.GreedyPick orders them.
func (b *scenarioBank) Pick(ck int, part []int, alpha float64, dir scenario.Direction, x []float64) ([]int, error) {
	var scores map[int]float64
	if x != nil {
		var err error
		scores, err = b.cursor(ck).ScoreMap(b.r.ctx, part, x, b.r.opts.Parallelism)
		if err != nil {
			return nil, err
		}
	}
	return scenario.Pick(part, alpha, dir, scores), nil
}

// Summarize builds the α-summary of the chosen scenario IDs in direction
// dir (accel as in scenario.Set.Summarize), bit-identical to folding the
// materialized set for any worker count.
func (b *scenarioBank) Summarize(ck int, chosen []int, dir scenario.Direction, accel []bool) (*scenario.Summary, error) {
	return b.cursor(ck).Summarize(b.r.ctx, chosen, dir, accel, b.r.opts.Parallelism)
}

// hasObj reports whether the bank carries a probability-objective population.
func (b *scenarioBank) hasObj() bool {
	return b.r.silp.ObjKind == translate.ObjProbability
}
