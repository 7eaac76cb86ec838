package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"spq/internal/rng"
)

// WriteScenarioCSV writes one realized scenario ("possible world" in the
// Monte Carlo model) as CSV: all deterministic columns followed by the
// realized values of every stochastic attribute, with a header row. The
// same (src, scenario) coordinates always produce the same world.
func (r *Relation) WriteScenarioCSV(w io.Writer, src rng.Source, scenario int) error {
	cw := csv.NewWriter(w)
	header := append(r.DetNames(), r.StochNames()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	stochCols := make([][]float64, len(r.stochs))
	for k := range r.stochs {
		col := make([]float64, r.n)
		if err := r.Realize(src, r.stochs[k].name, scenario, col); err != nil {
			return err
		}
		stochCols[k] = col
	}
	record := make([]string, len(header))
	for t := 0; t < r.n; t++ {
		for i := range r.detCols {
			record[i] = strconv.FormatFloat(r.detCols[i][t], 'g', -1, 64)
		}
		for k := range stochCols {
			record[len(r.detCols)+k] = strconv.FormatFloat(stochCols[k][t], 'g', -1, 64)
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SampleTuple returns realizations of one tuple's stochastic attribute
// across the scenarios [0, m) — a quick empirical look at a tuple's
// uncertainty, as a monitoring/debugging aid.
func (r *Relation) SampleTuple(src rng.Source, attr string, tuple, m int) ([]float64, error) {
	if tuple < 0 || tuple >= r.n {
		return nil, fmt.Errorf("relation: tuple %d out of range [0, %d)", tuple, r.n)
	}
	a, err := r.Attr(attr)
	if err != nil {
		return nil, err
	}
	var st rng.Stream
	out := make([]float64, m)
	for j := 0; j < m; j++ {
		v, err := a.Value(&st, src, tuple, j)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}
