// Command perfbench is spq's end-to-end benchmark. It runs one named
// workload against spq through its public entry points (workload.*,
// spq.DB.Register, engine.Engine.Query, engine.Handler with spq/client, and
// core.Validate), checks every answer, and prints the metrics as one JSON
// object on the last line of its output:
//
//	go run . --workload portfolio-solve --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// benchmark passes its own obs span into the engine, folds the span trees
// the program records under it (and the job traces of serve-mixed), and
// prints the per-layer metrics instead. metrics.go lists both sets and
// what each per-layer metric should move.
//
// The command exits non-zero when any operation failed or any answer was
// wrong, after printing the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	run  func(runConfig) (*runStats, error)
}

// workloads are the benchmark's workloads and why each was chosen.
var workloads = []workloadDef{
	{
		name: "portfolio-solve",
		why:  "Portfolio Q1-Q8 at N=150, one client, every request a cache miss: milp/lp do nearly all the work (the LP/B&B hot path)",
		run:  portfolioSolve.run,
	},
	{
		name: "galaxy-scan",
		why:  "Galaxy Q3/Q4/Q7/Q8 at N=20000 with M-hat=100000, one client: scenario generation and validation dominate, the MILPs are tiny",
		run:  galaxyScan.run,
	},
	{
		name: "serve-mixed",
		why:  "v1 HTTP API with nproc clients: 90% Zipf queries over 384 requests, 10% deltas; the only load on caches, admission, jobs and warm re-solves",
		run:  serveMixed.run,
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same request stream")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	source := fs.String("source", "", "identifier of the source tree under test; answers are kept per source under .bench_build/answers so a later run can be checked against them")
	commit := fs.String("commit", "", "commit under test, for the provenance record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}
	if *source != "" {
		cfg.answers = filepath.Join(".bench_build", "answers", safeName(*source), w.name+".json")
	}

	rs, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rs.book.save(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: keep answers: %v\n", w.name, err)
		return 1
	}
	rs.spans.warn(stderr)
	for _, f := range rs.failures {
		fmt.Fprintf(stderr, "perfbench: failure: %s\n", f)
	}

	prov := map[string]any{
		"workload":    w.name,
		"seed":        *seed,
		"run_seconds": *seconds,
		"measured_s":  rs.measuredS,
		"trace":       *trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"source":      *source,
		"commit":      *commit,
		"digest":      rs.book.digest(),
		"answers":     rs.book.size(),
	}
	line, _ := json.Marshal(prov) // a map of plain values always marshals
	fmt.Fprintf(stdout, "provenance %s\n", line)
	n := len(rs.queryMS)
	fmt.Fprintf(stdout, "queries %d (latency tail with >=10 samples beyond: p%g), deltas %d, attempted %d, failed %d\n",
		n, 100*tailQuantile(n), len(rs.deltaMS), rs.attempted, rs.failed)

	if len(rs.roundMS) > 0 {
		fmt.Fprintf(stdout, "round ms %.1f\n", rs.roundMS)
		keys := make([]string, 0, len(rs.byRequest))
		for k := range rs.byRequest {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(stdout, "median ms by request:")
		for _, k := range keys {
			fmt.Fprintf(stdout, " %s=%.1f", k, median(rs.byRequest[k]))
		}
		fmt.Fprintln(stdout)
	}

	defs, values := endToEnd, rs.endToEndValues()
	if cfg.traced {
		defs, values = perLayer, rs.perLayerValues()
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	res := result{
		Correct:   rs.failed == 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   render(defs, values),
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// safeName keeps a source identifier usable as one path element.
func safeName(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.' {
			return r
		}
		return '_'
	}, s)
}
