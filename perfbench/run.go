package main

import (
	"fmt"

	"spq/internal/engine"
	"spq/internal/stream"
)

// runConfig is what the command line gives every workload.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	// answers is the on-disk answer record of this source tree and
	// workload ("" keeps answers in memory only).
	answers string
}

// counters are the engine counters the benchmark reads from
// engine.Stats(), summed over every engine of a run.
type counters struct {
	resultHits, resultMisses          int64
	planHits, planMisses              int64
	milpNodes, lpIters, lpWarm        int64
	lpFlips                           int64
	warmResolves, invalidated, retain int64
}

func engineCounters(s engine.Stats) counters {
	return counters{
		resultHits: s.ResultCacheHits, resultMisses: s.ResultCacheMisses,
		planHits: s.CacheHits, planMisses: s.CacheMisses,
		milpNodes: s.MilpNodes, lpIters: s.LpIters, lpWarm: s.LpWarmStarts, lpFlips: s.LpBoundFlips,
		warmResolves: s.WarmResolves, invalidated: s.ResultsInvalidated, retain: s.ResultsRetained,
	}
}

func (c *counters) add(o counters) {
	c.resultHits += o.resultHits
	c.resultMisses += o.resultMisses
	c.planHits += o.planHits
	c.planMisses += o.planMisses
	c.milpNodes += o.milpNodes
	c.lpIters += o.lpIters
	c.lpWarm += o.lpWarm
	c.lpFlips += o.lpFlips
	c.warmResolves += o.warmResolves
	c.invalidated += o.invalidated
	c.retain += o.retain
}

// streamDelta is the growth of the process-wide pipeline counters between
// two snapshots.
func streamDelta(a, b stream.CountersSnapshot) stream.CountersSnapshot {
	return stream.CountersSnapshot{
		BlocksGenerated:      b.BlocksGenerated - a.BlocksGenerated,
		ValuesGenerated:      b.ValuesGenerated - a.ValuesGenerated,
		SummaryTuplesPatched: b.SummaryTuplesPatched - a.SummaryTuplesPatched,
		SummaryTuplesReused:  b.SummaryTuplesReused - a.SummaryTuplesReused,
	}
}

// maxFailureNotes bounds the failure messages a run keeps for its report.
const maxFailureNotes = 10

// runStats is everything one run measured.
type runStats struct {
	setup     []setupRep
	measuredS float64
	// queryMS holds the client-side latency of every answer received, wrong
	// or not, and deltaMS of every applied delta.
	queryMS []float64
	deltaMS []float64

	attempted, failed int
	failures          []string
	feasible          int // answers reported feasible

	allocBytes    uint64 // MemStats.TotalAlloc growth over the measured phase
	heapPeakBytes uint64 // peak live heap over the measured phase

	eng        counters
	stream     stream.CountersSnapshot
	deltaCells int64
	spans      *spanSum

	// Figures of answers that ran a solve (result-cache hits excluded):
	// optimize/validate iterations, iterations whose candidate validated
	// feasible, and the final scenario count M.
	solves, iterations, feasibleIters, finalMSum int

	queryHTTP        int64     // HTTP requests made on behalf of queries
	clientOverheadMS []float64 // client wall time minus server-side root span

	// Mean query latency of traced and untraced operations, for the
	// tracing overhead.
	tracedMS, untracedMS []float64

	// roundMS is the wall time of each round of a solve workload, and
	// byRequest the latencies of each of its requests.
	roundMS   []float64
	byRequest map[string][]float64

	book *answerBook
}

func newRunStats(setup []setupRep, book *answerBook) *runStats {
	return &runStats{setup: setup, spans: newSpanSum(), book: book, byRequest: map[string][]float64{}}
}

// fail counts one failed operation.
func (rs *runStats) fail(format string, args ...any) {
	rs.failed++
	if len(rs.failures) < maxFailureNotes {
		rs.failures = append(rs.failures, fmt.Sprintf(format, args...))
	}
}

// endToEndValues computes the end-to-end metrics.
func (rs *runStats) endToEndValues() map[string]float64 {
	totals := make([]float64, len(rs.setup))
	for i, r := range rs.setup {
		totals[i] = r.total
	}
	n := float64(len(rs.queryMS))
	return map[string]float64{
		"setup_s":            median(totals),
		"queries_per_s":      ratio(n, rs.measuredS),
		"query_p50_ms":       quantile(rs.queryMS, 0.5),
		"query_p90_ms":       quantile(rs.queryMS, 0.9),
		"alloc_mb_per_query": ratio(float64(rs.allocBytes)/1e6, n),
		"heap_peak_mb":       float64(rs.heapPeakBytes) / 1e6,
		"feasible_frac":      ratio(float64(rs.feasible), n),
	}
}

// perLayerValues computes the per-layer metrics. Span figures are per traced
// query; counter figures are per answered query.
func (rs *runStats) perLayerValues() map[string]float64 {
	sp := rs.spans
	tq := float64(sp.queries)
	nq := float64(len(rs.queryMS))
	ms := func(us int64) float64 { return float64(us) / 1e3 }
	c := rs.eng
	gen, reg := make([]float64, len(rs.setup)), make([]float64, len(rs.setup))
	for i, r := range rs.setup {
		gen[i], reg[i] = r.gen, r.reg
	}
	solveMSPerQuery := ratio(ms(sp.phaseUS["solve"]), tq)
	nodesPerQuery := ratio(float64(c.milpNodes), nq)
	p99 := 0.0
	if tailQuantile(len(rs.queryMS)) >= 0.99 {
		p99 = quantile(rs.queryMS, 0.99)
	}
	overhead := 0.0
	if u := mean(rs.untracedMS); u > 0 && len(rs.tracedMS) > 0 {
		overhead = 100 * (mean(rs.tracedMS) - u) / u
	}
	return map[string]float64{
		"milp.solve_ms_per_query":  solveMSPerQuery,
		"milp.solve_share":         ratio(float64(sp.phaseUS["solve"]), float64(sp.rootUS)),
		"milp.nodes_per_query":     nodesPerQuery,
		"milp.us_per_node":         ratio(solveMSPerQuery*1e3, nodesPerQuery),
		"lp.iters_per_query":       ratio(float64(c.lpIters), nq),
		"lp.iters_per_node":        ratio(float64(c.lpIters), float64(c.milpNodes)),
		"lp.warm_start_ratio":      ratio(float64(c.lpWarm), float64(c.milpNodes)),
		"lp.bound_flips_per_query": ratio(float64(c.lpFlips), nq),

		"core.validate_ms_per_query":     ratio(ms(sp.phaseUS["validate"]), tq),
		"core.validate_scenarios_per_s":  ratio(float64(sp.validateScenarios), float64(sp.phaseUS["validate"])/1e6),
		"core.iterations_per_query":      ratio(float64(rs.iterations), float64(rs.solves)),
		"core.final_m_mean":              ratio(float64(rs.finalMSum), float64(rs.solves)),
		"core.candidates_feasible_ratio": ratio(float64(rs.feasibleIters), float64(rs.iterations)),

		"stream.values_per_query":         ratio(float64(rs.stream.ValuesGenerated), nq),
		"stream.blocks_per_query":         ratio(float64(rs.stream.BlocksGenerated), nq),
		"scenario.generate_ms_per_query":  ratio(ms(sp.phaseUS["generate"]), tq),
		"scenario.summarize_ms_per_query": ratio(ms(sp.phaseUS["summarize"]), tq),
		"scenario.summary_tuples_patched": float64(rs.stream.SummaryTuplesPatched),
		"scenario.summary_tuples_reused":  float64(rs.stream.SummaryTuplesReused),

		"engine.result_cache_hit_ratio": ratio(float64(c.resultHits), float64(c.resultHits+c.resultMisses)),
		"engine.hit_us_p50":             quantile(sp.hitUS, 0.5),
		"engine.self_ms_per_query":      ratio(ms(sp.selfUS), tq),
		"engine.plan_cache_hit_ratio":   ratio(float64(c.planHits), float64(c.planHits+c.planMisses)),
		"engine.admission_wait_ms_p90":  quantile(sp.waitMS, 0.9),
		"engine.warm_resolves":          float64(c.warmResolves),
		"engine.results_invalidated":    float64(c.invalidated),
		"engine.results_retained":       float64(c.retain),

		"client.http_requests_per_query": ratio(float64(rs.queryHTTP), nq),
		"client.overhead_ms_p50":         quantile(rs.clientOverheadMS, 0.5),
		"spaql.parse_us_p50":             quantile(sp.parseUS, 0.5),
		"translate.plan_ms_total":        ms(sp.phaseUS["plan"]),
		"relation.delta_cells_patched":   float64(rs.deltaCells),
		"setup.generate_s":               median(gen),
		"setup.register_s":               median(reg),
		"obs.trace_overhead_pct":         overhead,

		"query_p99_ms":  p99,
		"delta_p50_ms":  quantile(rs.deltaMS, 0.5),
		"query_samples": nq,
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
