package core

import (
	"context"
	"math"

	"spq/internal/par"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// This file implements the (1+ε)-approximation machinery of §5.4 and
// Appendix B: bounds ω̲ ≤ ω̂ ≤ ω̄ on the optimal validation objective ω̂,
// assembled from
//
//	(A1) bounds s̲ ≤ ŝ_ij ≤ s̄ on realized objective inner-function values,
//	     probed over scenarios of all tuples (the paper's loose global
//	     min/max);
//	(A2) bounds l̲ ≤ Σx̂ ≤ l̄ on the optimal package size, derived from
//	     COUNT constraints and the per-tuple multiplicity bounds;
//	(B1) the constraint-agnostic bounds of Table 1; and
//	(B2) the constraint-specific bounds of Table 2 for probabilistic
//	     constraints whose inner function equals the objective's
//	     (supporting/counteracting, Definition 2).
//
// ε′ then follows from Propositions 2–5 depending on the optimization sense
// and objective sign.

// probeScenarios is the number of scenarios used to estimate the value range
// of the objective inner function across all tuples.
const probeScenarios = 64

// packageSizeBounds derives (A2) from the SILP: COUNT rows are recognized as
// deterministic rows whose coefficients are all exactly 1.
func packageSizeBounds(s *translate.SILP) (lo, hi float64) {
	lo = 0
	hi = 0
	for _, h := range s.VarHi {
		hi += h
	}
	for _, c := range s.DetCons {
		allOnes := true
		for _, a := range c.Coefs {
			if a != 1 {
				allOnes = false
				break
			}
		}
		if !allOnes {
			continue
		}
		if c.Lo > lo {
			lo = c.Lo
		}
		if c.Hi < hi {
			hi = c.Hi
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// probeObjectiveRange estimates s̲, s̄ (A1) by realizing the objective inner
// function for all tuples over a fixed number of validation-stream
// scenarios. For a purely deterministic objective the exact column extremes
// are used. Results are cached on the runner.
//
// The probe scenarios are sharded across Options.Parallelism workers, each
// with one scratch stream and two reused rows. Shard extremes merge with
// math.Min/math.Max, which are commutative and associative (NaN absorbs,
// −0 < +0), so s̲, s̄ — and hence ε′ — are bit-identical for every worker
// count. The probe ignores cancellation, as validation's callers read ε′
// only from a completed validation.
func (r *runner) probeObjectiveRange() (sLo, sHi float64) {
	if r.probed {
		return r.sLo, r.sHi
	}
	r.probed = true
	silp := r.silp
	sLo, sHi = math.Inf(1), math.Inf(-1)

	expr := silp.ObjExpr
	if len(expr.Terms) == 0 && silp.ObjKind == translate.ObjLinear {
		// COUNT-style or constant objective: per-tuple value is the constant.
		r.sLo, r.sHi = expr.Const, expr.Const
		if silp.ObjCoefs != nil {
			// Fall back to coefficient extremes when the expression was not
			// retained (deterministic objectives have exact coefficients).
			for _, c := range silp.ObjCoefs {
				sLo = math.Min(sLo, c)
				sHi = math.Max(sHi, c)
			}
			r.sLo, r.sHi = sLo, sHi
		}
		return r.sLo, r.sHi
	}

	stochastic := false
	for _, t := range expr.Terms {
		if silp.Rel.IsStochastic(t.Attr) {
			stochastic = true
			break
		}
	}
	if !stochastic {
		col, err := exprColumnDet(silp, expr)
		if err == nil {
			for _, v := range col {
				sLo = math.Min(sLo, v)
				sHi = math.Max(sHi, v)
			}
			r.sLo, r.sHi = sLo, sHi
			return sLo, sHi
		}
	}
	workers := par.Workers(r.opts.Parallelism, probeScenarios)
	los, his := make([]float64, workers), make([]float64, workers)
	err := par.Ranges(context.Background(), probeScenarios, workers, func(shard, lo, hi int) error {
		var st rng.Stream
		row, buf := make([]float64, silp.N), make([]float64, silp.N)
		shardLo, shardHi := math.Inf(1), math.Inf(-1)
		for j := lo; j < hi; j++ {
			if err := translate.ExprRealize(&st, r.valSrc, silp.Rel, expr, j, row, buf); err != nil {
				return err
			}
			for _, v := range row {
				shardLo = math.Min(shardLo, v)
				shardHi = math.Max(shardHi, v)
			}
		}
		los[shard], his[shard] = shardLo, shardHi
		return nil
	})
	if err != nil {
		r.sLo, r.sHi = math.Inf(-1), math.Inf(1) // unusable
		return r.sLo, r.sHi
	}
	for k := range los {
		sLo = math.Min(sLo, los[k])
		sHi = math.Max(sHi, his[k])
	}
	r.sLo, r.sHi = sLo, sHi
	return sLo, sHi
}

// exprColumnDet evaluates a deterministic expression per tuple.
func exprColumnDet(s *translate.SILP, e spaql.LinExpr) ([]float64, error) {
	out := make([]float64, s.N)
	for i := range out {
		out[i] = e.Const
	}
	for _, t := range e.Terms {
		col, err := s.Rel.Det(t.Attr)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] += t.Coef * col[i]
		}
	}
	return out, nil
}

// omegaBounds assembles ω̲ ≤ ω̂ ≤ ω̄ for the validation-optimal objective in
// the query's original sense.
func (r *runner) omegaBounds() (lo, hi float64) {
	silp := r.silp
	if silp.ObjKind == translate.ObjProbability {
		// A probability objective is bounded in [0, 1]; a probabilistic
		// constraint over the same inner function tightens nothing useful.
		return 0, 1
	}
	sLo, sHi := r.probeObjectiveRange()
	lLo, lHi := r.sizeLo, r.sizeHi

	// (B1) Constraint-agnostic Table 1 bounds.
	if sLo >= 0 {
		lo = sLo * lLo
	} else {
		lo = sLo * lHi
	}
	if sHi >= 0 {
		hi = sHi * lHi
	} else {
		hi = sHi * lLo
	}

	// (B2) Constraint-specific Table 2 bounds for constraints whose inner
	// function matches the objective's.
	for _, pc := range silp.ProbCons {
		if !translate.ExprEqual(pc.Expr, silp.ObjExpr) {
			continue
		}
		if pc.Geq {
			// Pr(Σξx ≥ v) ≥ p: satisfied scenarios contribute ≥ v each.
			var partSat float64
			if pc.V >= 0 {
				partSat = pc.P * pc.V
			} else {
				partSat = pc.V
			}
			var partUnsat float64
			switch {
			case sLo >= 0:
				partUnsat = 0
			default:
				partUnsat = (1 - pc.P) * sLo * lHi
			}
			if b := partSat + partUnsat; b > lo {
				lo = b
			}
		} else {
			// Pr(Σξx ≤ v) ≥ p: satisfied scenarios contribute ≤ v each.
			var partSat float64
			if pc.V >= 0 {
				partSat = pc.V
			} else {
				partSat = pc.P * pc.V
			}
			var partUnsat float64
			switch {
			case sHi >= 0:
				partUnsat = (1 - pc.P) * sHi * lHi
			default:
				partUnsat = 0
			}
			if b := partSat + partUnsat; b < hi {
				hi = b
			}
		}
	}
	return lo, hi
}

// epsUpper computes ε′ = the Propositions 2–5 bound guaranteeing
// ω(q) within (1+ε′) of ω̂, given the solution's validation objective in the
// original sense. +Inf when no applicable bound exists.
func (r *runner) epsUpper(objVal float64) float64 {
	lo, hi := r.omegaBounds()
	var eps float64
	if !r.silp.Maximize {
		// Minimization: need ω̲ ≤ ω̂.
		switch {
		case lo > 0 && objVal > 0:
			eps = objVal/lo - 1 // Proposition 2
		case lo < 0 && objVal < 0:
			eps = lo/objVal - 1 // Proposition 3
		case lo == 0 && objVal == 0:
			eps = 0
		default:
			return math.Inf(1)
		}
	} else {
		// Maximization: need ω̂ ≤ ω̄.
		switch {
		case hi > 0 && objVal > 0:
			eps = hi/objVal - 1 // Proposition 4
		case hi < 0 && objVal < 0:
			eps = objVal/hi - 1 // Proposition 5
		case hi == 0 && objVal == 0:
			eps = 0
		default:
			return math.Inf(1)
		}
	}
	if eps < 0 {
		eps = 0
	}
	return eps
}
