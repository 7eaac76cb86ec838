package main

// metricDef is one metric of the benchmark. BENCHMARK.json lists the same
// names, units, directions and bounds (TestBenchmarkJSONMatchesCatalogue
// keeps the two in step); this table also records, for each per-layer
// metric, the end-to-end metric and workload a change to that layer should
// move and where it should stay flat, so later changes can cite them by
// name.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload the layer metric
	// should move; FlatOn names where it should not move.
	Moves  string
	FlatOn string
}

// endToEnd are the metrics a user of spq sees, measured with tracing off.
// The timing bounds are wide because the host's speed drifts over minutes:
// on a 2-vCPU host, identical portfolio-solve rounds took 7.6–11.6 s at
// different times within an hour, while the guest saw about 2% CPU steal.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_query", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "feasible_frac", Unit: "ratio", Better: "higher", Bound: 0.05},
}

const (
	onSolve    = "queries_per_s, query_p50_ms and alloc_mb_per_query on portfolio-solve"
	onScan     = "queries_per_s on galaxy-scan"
	onBothSolv = "queries_per_s on portfolio-solve and galaxy-scan"
	onServeP50 = "query_p50_ms on serve-mixed"
	onServeP90 = "query_p90_ms on serve-mixed"
	flatMisses = "portfolio-solve and galaxy-scan, where every request misses the caches"
)

// perLayer are the metrics of single layers, measured in the traced run.
var perLayer = []metricDef{
	{Name: "milp.solve_ms_per_query", Unit: "ms", Better: "lower", Moves: onSolve, FlatOn: "serve-mixed result-cache hits"},
	{Name: "milp.solve_share", Unit: "ratio", Better: "lower", Moves: onSolve, FlatOn: "serve-mixed result-cache hits"},
	{Name: "milp.nodes_per_query", Unit: "count", Better: "lower", Moves: onSolve, FlatOn: "serve-mixed result-cache hits"},
	{Name: "milp.us_per_node", Unit: "us", Better: "lower", Moves: onSolve, FlatOn: "serve-mixed result-cache hits"},
	{Name: "lp.iters_per_query", Unit: "count", Better: "lower", Moves: onSolve, FlatOn: "serve-mixed result-cache hits"},
	{Name: "lp.iters_per_node", Unit: "count", Better: "lower", Moves: onSolve, FlatOn: "serve-mixed result-cache hits"},
	{Name: "lp.warm_start_ratio", Unit: "ratio", Better: "higher", Moves: onSolve, FlatOn: "serve-mixed result-cache hits"},
	{Name: "lp.bound_flips_per_query", Unit: "count", Better: "higher", Moves: onSolve, FlatOn: "serve-mixed result-cache hits"},

	{Name: "core.validate_ms_per_query", Unit: "ms", Better: "lower", Moves: onScan, FlatOn: "portfolio-solve, where validate is under 3% of query time"},
	{Name: "core.validate_scenarios_per_s", Unit: "1/s", Better: "higher", Moves: onScan, FlatOn: "portfolio-solve, where validate is under 3% of query time"},
	{Name: "core.iterations_per_query", Unit: "count", Better: "lower", Moves: onBothSolv},
	{Name: "core.final_m_mean", Unit: "count", Better: "lower", Moves: onBothSolv},
	{Name: "core.candidates_feasible_ratio", Unit: "ratio", Better: "higher", Moves: onBothSolv},

	{Name: "stream.values_per_query", Unit: "count", Better: "lower", Moves: onScan, FlatOn: "portfolio-solve"},
	{Name: "stream.blocks_per_query", Unit: "count", Better: "lower", Moves: onScan, FlatOn: "portfolio-solve"},
	// core records generate spans only where it materializes scenario
	// sets; on the default streamed path values are realized inside
	// summarize and validate, and this reads 0.
	{Name: "scenario.generate_ms_per_query", Unit: "ms", Better: "lower", Moves: onScan, FlatOn: "portfolio-solve"},
	{Name: "scenario.summarize_ms_per_query", Unit: "ms", Better: "lower", Moves: onScan, FlatOn: "portfolio-solve"},
	{Name: "scenario.summary_tuples_patched", Unit: "count", Better: "lower", Moves: onServeP90 + ", through the warm path"},
	{Name: "scenario.summary_tuples_reused", Unit: "count", Better: "higher", Moves: onServeP90 + ", through the warm path"},

	{Name: "engine.result_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: onServeP50, FlatOn: flatMisses},
	{Name: "engine.hit_us_p50", Unit: "us", Better: "lower", Moves: onServeP50, FlatOn: flatMisses},
	{Name: "engine.self_ms_per_query", Unit: "ms", Better: "lower", Moves: onServeP50, FlatOn: flatMisses},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: onServeP90, FlatOn: flatMisses},
	{Name: "engine.admission_wait_ms_p90", Unit: "ms", Better: "lower", Moves: onServeP90, FlatOn: flatMisses},
	{Name: "engine.warm_resolves", Unit: "count", Better: "higher", Moves: onServeP90, FlatOn: flatMisses},
	{Name: "engine.results_invalidated", Unit: "count", Better: "lower", Moves: onServeP90, FlatOn: flatMisses},
	{Name: "engine.results_retained", Unit: "count", Better: "higher", Moves: onServeP90, FlatOn: flatMisses},

	{Name: "client.http_requests_per_query", Unit: "count", Better: "lower", Moves: onServeP50},
	{Name: "client.overhead_ms_p50", Unit: "ms", Better: "lower", Moves: onServeP50},
	{Name: "spaql.parse_us_p50", Unit: "us", Better: "lower", Moves: onServeP50 + ", because every hit parses"},
	{Name: "translate.plan_ms_total", Unit: "ms", Better: "lower", Moves: onServeP90},
	{Name: "relation.delta_cells_patched", Unit: "count", Better: "lower", Moves: "delta_p50_ms on serve-mixed"},
	{Name: "setup.generate_s", Unit: "s", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "setup.register_s", Unit: "s", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},

	// Serving figures that only serve-mixed produces. They are end-to-end
	// in nature but cannot be end-to-end metrics here: those must be
	// non-zero on every workload, and the solve workloads apply no deltas
	// and collect fewer than the 1000 samples a p99 needs.
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed tail latency"},
	{Name: "delta_p50_ms", Unit: "ms", Better: "lower", Moves: "serve-mixed update latency"},
	{Name: "query_samples", Unit: "count", Better: "higher"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// render keeps the metrics named in defs, in the catalogue's units; a
// metric the run did not produce reads 0.
func render(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
