package main

import (
	"fmt"
	"io"
	"strconv"

	"spq/client"
	"spq/internal/obs"
)

// spanPhases are the span names the program records at its layer
// boundaries: parse, wait and plan from the engine; generate, summarize,
// solve and validate from core. The benchmark sums their time across each
// query's tree.
var spanPhases = []string{"parse", "wait", "plan", "generate", "summarize", "solve", "validate"}

// spanSum aggregates the span trees of the traced queries of a run. Each
// tree's root is the span that covers one whole query: the benchmark's own
// span for direct engine calls, the job's root span for v1 jobs.
type spanSum struct {
	queries int
	rootUS  int64
	selfUS  int64
	phaseUS map[string]int64
	// parseUS, waitMS and hitUS are per-span samples for percentiles:
	// parse spans, admission-wait spans, and the roots of result-cache hits.
	parseUS []float64
	waitMS  []float64
	hitUS   []float64
	// validateScenarios sums M̂ over validate spans (their m_hat attribute).
	validateScenarios int64
	// dropped counts children the program discarded past its per-span
	// fan-out cap; when non-zero the phase sums undercount.
	dropped int64
}

func newSpanSum() *spanSum { return &spanSum{phaseUS: map[string]int64{}} }

// add folds one query's span tree into the sums.
func (s *spanSum) add(root *obs.SpanData) {
	if root == nil {
		return
	}
	s.queries++
	s.rootUS += root.DurationUS
	s.selfUS += selfUS(root)
	if root.Attrs["result_cache"] == "hit" {
		s.hitUS = append(s.hitUS, float64(root.DurationUS))
	}
	root.Walk(func(d *obs.SpanData) {
		if n, err := strconv.ParseInt(d.Attrs["dropped_children"], 10, 64); err == nil {
			s.dropped += n
		}
		if d == root {
			return
		}
		for _, p := range spanPhases {
			if d.Name == p {
				s.phaseUS[p] += d.DurationUS
			}
		}
		switch d.Name {
		case "parse":
			s.parseUS = append(s.parseUS, float64(d.DurationUS))
		case "wait":
			s.waitMS = append(s.waitMS, float64(d.DurationUS)/1e3)
		case "validate":
			if m, err := strconv.ParseInt(d.Attrs["m_hat"], 10, 64); err == nil {
				s.validateScenarios += m
			}
		}
	})
}

// warn reports trace truncation, which makes the phase sums undercount.
func (s *spanSum) warn(w io.Writer) {
	if s.dropped > 0 {
		fmt.Fprintf(w, "perfbench: warning: %d spans dropped past the fan-out cap; phase times undercount\n", s.dropped)
	}
}

// selfUS is a span's own time: its duration minus the part of its interval
// that its children cover. Children can run in parallel, so their union is
// subtracted, not their sum.
func selfUS(d *obs.SpanData) int64 {
	ivs := make([]interval, 0, len(d.Children))
	for _, c := range d.Children {
		ivs = append(ivs, interval{c.StartUnixUS, c.StartUnixUS + c.DurationUS})
	}
	return d.DurationUS - unionLength(ivs, d.StartUnixUS, d.StartUnixUS+d.DurationUS)
}

// fromWire converts a v1 job trace to the engine's span data; the two types
// carry the same fields.
func fromWire(t *client.TraceSpan) *obs.SpanData {
	if t == nil {
		return nil
	}
	d := &obs.SpanData{
		TraceID:     t.TraceID,
		Name:        t.Name,
		StartUnixUS: t.StartUnixUS,
		DurationUS:  t.DurationUS,
		Attrs:       t.Attrs,
	}
	for _, c := range t.Children {
		d.Children = append(d.Children, fromWire(c))
	}
	return d
}
