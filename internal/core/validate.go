package core

import (
	"context"
	"math"

	"spq/internal/obs"
	"spq/internal/par"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// Validation is the metadata v̂ computed by the out-of-sample validation of
// §3.2: per-constraint p-surpluses, feasibility, the objective estimate, and
// the ε′ upper bound of §5.4.
type Validation struct {
	Feasible  bool
	Surpluses []float64
	Objective float64 // original sense
	EpsUpper  float64
	// CIHalf holds the 95% normal-approximation half-widths of the
	// per-constraint satisfied-fraction estimates — the simple a-posteriori
	// feasibility analysis the paper points to (wait-and-judge, §7). A
	// solution is confidently feasible when surplus − CIHalf ≥ 0.
	CIHalf []float64
}

// ConfidentlyFeasible reports feasibility with the satisfied-fraction
// confidence interval subtracted: every surplus clears its 95% half-width.
func (v *Validation) ConfidentlyFeasible() bool {
	for k, s := range v.Surpluses {
		if s-v.CIHalf[k] < 0 {
			return false
		}
	}
	return true
}

// Validate checks a package x against the out-of-sample validation protocol
// of §3.2 under the given options, standing alone from any optimize loop. It
// is the entry point the concurrent engine and the benchmarks use; the
// algorithms' internal validation goes through the same code path, so
// parallel and sequential runs are bit-identical.
func Validate(ctx context.Context, silp *translate.SILP, x []float64, o *Options) (*Validation, error) {
	return newRunner(ctx, silp, o).validate(x)
}

// validate checks solution x against M̂ out-of-sample scenarios from the
// validation source. Expectation constraints are feasible by construction
// (the DILP uses the precomputed means, §3.2), so only probabilistic
// constraints are streamed. Only tuples with x_i > 0 are realized, and only
// a running per-scenario score is kept, so memory is Θ(M̂) regardless of N.
//
// The M̂ scenarios are sharded into contiguous ranges across
// Options.Parallelism workers, each with its own scratch rng.Stream and the
// expression's attributes resolved once per call. Every realization is a
// pure function of its (attribute, tuple, scenario) coordinate and each
// shard accumulates its scenarios' scores in the same tuple-major order as
// the sequential path, so the per-scenario scores — and hence the satisfied
// counts, surpluses, and objective — are bit-identical for any worker count.
func (r *runner) validate(x []float64) (*Validation, error) {
	mhat := r.opts.ValidationM
	silp := r.silp
	sp := obs.SpanFromContext(r.ctx).StartChild("validate")
	sp.SetInt("m_hat", int64(mhat))
	defer sp.End()
	val := &Validation{Feasible: true, EpsUpper: math.Inf(1)}

	var pkg []int
	for i, xi := range x {
		if xi > 0 {
			pkg = append(pkg, i)
		}
	}

	workers := par.Workers(r.opts.Parallelism, mhat)
	scores := make([]float64, mhat)
	countSatisfied := func(expr spaql.LinExpr, mask []bool, geq bool, v float64) (int, error) {
		e, err := translate.BindExpr(silp.Rel, expr)
		if err != nil {
			return 0, err
		}
		counts := make([]int, workers)
		err = par.Ranges(r.ctx, mhat, workers, func(shard, lo, hi int) error {
			var st rng.Stream
			sc := scores[lo:hi]
			for j := range sc {
				sc[j] = 0
			}
			// Tuple-major streaming within the shard: realize each package
			// tuple across the shard's validation scenarios (cheap:
			// |pkg| ≪ N, §3.2). Tuples excluded by a general-form aggregate
			// filter contribute nothing.
			for _, i := range pkg {
				if mask != nil && !mask[i] {
					continue
				}
				if err := r.ctx.Err(); err != nil {
					return err
				}
				for j := lo; j < hi; j++ {
					w, err := e.Value(&st, r.valSrc, i, j)
					if err != nil {
						return err
					}
					sc[j-lo] += w * x[i]
				}
			}
			count := 0
			for _, s := range sc {
				if (geq && s >= v) || (!geq && s <= v) {
					count++
				}
			}
			counts[shard] = count
			return nil
		})
		if err != nil {
			return 0, err
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total, nil
	}

	for _, pc := range silp.ProbCons {
		count, err := countSatisfied(pc.Expr, pc.Mask, pc.Geq, pc.V)
		if err != nil {
			return nil, err
		}
		frac := float64(count) / float64(mhat)
		surplus := frac - pc.P
		val.Surpluses = append(val.Surpluses, surplus)
		// 95% normal-approximation half-width of the binomial fraction.
		val.CIHalf = append(val.CIHalf, 1.96*math.Sqrt(frac*(1-frac)/float64(mhat)))
		if surplus < 0 {
			val.Feasible = false
		}
	}

	switch silp.ObjKind {
	case translate.ObjLinear:
		obj := 0.0
		for _, i := range pkg {
			obj += silp.ObjCoefs[i] * x[i]
		}
		val.Objective = obj
	case translate.ObjProbability:
		count, err := countSatisfied(silp.ObjExpr, silp.ObjMask, silp.ObjGeq, silp.ObjV)
		if err != nil {
			return nil, err
		}
		val.Objective = float64(count) / float64(mhat)
	}

	val.EpsUpper = r.epsUpper(val.Objective)
	return val, nil
}
