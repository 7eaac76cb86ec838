package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"spq"
	"spq/internal/core"
	"spq/internal/engine"
	"spq/internal/obs"
	"spq/internal/spaql"
	"spq/internal/stream"
	"spq/internal/translate"
	"spq/internal/workload"
)

// solveSpec is a closed-loop solve workload: one client sends the
// workload's queries to engine.Engine.Query, each after the previous answer.
type solveSpec struct {
	generate    func(workload.Config) *workload.Instance
	n           int
	meansM      int // 0 keeps the defaults of workload.Config and spq.DB
	queries     []string
	validationM int
	check       detCheck
}

// portfolioSolve and galaxyScan are the two solve workloads; the reasons
// they were chosen are in workloads (main.go).
var (
	portfolioSolve = solveSpec{
		generate:    workload.Portfolio,
		n:           150,
		queries:     []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"},
		validationM: 2000,
		check:       priceAtMost(1000),
	}
	// galaxyScan runs the supported-objective Galaxy queries and registers
	// only their tables, with a reduced means budget: the default budget
	// over all eight tables makes set-up take about 25 s.
	galaxyScan = solveSpec{
		generate:    workload.Galaxy,
		n:           20000,
		meansM:      200,
		queries:     []string{"Q3", "Q4", "Q7", "Q8"},
		validationM: 100000,
		check:       countBetween(5, 10),
	}
)

// solverSeed is the optimization seed of every solve request. B&B work is
// heavy-tailed in it (Portfolio Q1 explores 237k–438k nodes across seeds
// 1–3, and a round of Q1–Q8 at N=100 takes 1.5–6.9 s across seeds 1–10), so
// a run at any workload seed replays the same requests and the workload seed
// only orders them. Runs at different seeds then measure the same work.
const solverSeed = 1

// solveRequest is one request of a solve workload.
type solveRequest struct {
	key   string
	query workload.Query
	opts  core.Options
}

// requests lists the workload's requests in an order drawn from seed.
func (s solveSpec) requests(inst *workload.Instance, seed uint64) ([]solveRequest, error) {
	var out []solveRequest
	for _, id := range s.queries {
		q, ok := inst.QueryByID(id)
		if !ok {
			return nil, fmt.Errorf("workload %s has no query %s", inst.Name, id)
		}
		out = append(out, solveRequest{
			key:   fmt.Sprintf("%s/seed%d", id, solverSeed),
			query: q,
			opts:  solveOptions(solverSeed, q.FixedZ, s.validationM),
		})
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// tables names the tables the workload's queries run against, read from a
// tiny instance of the workload.
func (s solveSpec) tables() []string {
	inst := s.generate(workload.Config{N: 2, Seed: dataSeed, MeansM: 1})
	var out []string
	for _, id := range s.queries {
		if q, ok := inst.QueryByID(id); ok {
			out = append(out, q.Table)
		}
	}
	return out
}

// setup builds the database and the first engine.
func (s solveSpec) setup(tables []string) (*env, *engine.Engine, setupRep, error) {
	start := time.Now()
	e, err := buildEnv(s.generate, workload.Config{N: s.n, Seed: dataSeed, MeansM: s.meansM}, tables)
	if err != nil {
		return nil, nil, setupRep{}, err
	}
	eng := spq.NewEngine(e.db, nil)
	return e, eng, setupRep{gen: e.genS, reg: e.regS, total: time.Since(start).Seconds()}, nil
}

// solveFirst keeps the first answer to a request for re-validation, and how
// many times that answer was served.
type solveFirst struct {
	req    solveRequest
	res    *engine.Result
	served int
}

// run measures the workload. The client repeats rounds of every request
// until cfg.seconds have passed, finishing the round in progress. Each round
// runs on a fresh engine with the engine's defaults, so no request is ever
// answered from the result cache and every round does the same work. In a
// traced run, even rounds pass the benchmark's own span into the engine and
// odd rounds do not, which gives the tracing overhead.
func (s solveSpec) run(cfg runConfig) (*runStats, error) {
	type setupOut struct {
		env *env
		eng *engine.Engine
	}
	tables := s.tables()
	out, reps, err := repeatSetup(func() (setupOut, setupRep, error) {
		e, eng, rep, err := s.setup(tables)
		return setupOut{e, eng}, rep, err
	}, nil)
	if err != nil {
		return nil, err
	}
	reqs, err := s.requests(out.env.inst, cfg.seed)
	if err != nil {
		return nil, err
	}
	book, err := openBook(cfg.answers)
	if err != nil {
		return nil, err
	}
	rs := newRunStats(reps, book)
	first := map[string]*solveFirst{}
	db := out.env.db

	// The whole run, checks included, must end well inside the time a run
	// is allowed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds)*time.Second+120*time.Second)
	defer cancel()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapPeak()
	s0 := stream.Counters()
	start := time.Now()
	eng := out.eng
	for round := 0; ; round++ {
		traced := cfg.traced && round%2 == 0
		roundStart := time.Now()
		for _, r := range reqs {
			s.one(ctx, eng, r, traced, rs, first)
		}
		roundMS := float64(time.Since(roundStart).Microseconds()) / 1e3
		rs.roundMS = append(rs.roundMS, roundMS)
		if cfg.traced {
			if traced {
				rs.tracedMS = append(rs.tracedMS, roundMS/float64(len(reqs)))
			} else {
				rs.untracedMS = append(rs.untracedMS, roundMS/float64(len(reqs)))
			}
		}
		rs.eng.add(engineCounters(eng.Stats()))
		if time.Since(start) >= time.Duration(cfg.seconds)*time.Second || ctx.Err() != nil {
			break
		}
		eng = spq.NewEngine(db, nil)
	}
	rs.measuredS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	rs.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rs.heapPeakBytes = heap.end()
	rs.stream = streamDelta(s0, stream.Counters())

	s.revalidate(ctx, db, first, rs)
	return rs, nil
}

// one sends one request and checks its answer.
func (s solveSpec) one(ctx context.Context, eng *engine.Engine, r solveRequest, traced bool, rs *runStats, first map[string]*solveFirst) {
	rs.attempted++
	opts := r.opts
	qctx := ctx
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace("bench")
		qctx = obs.ContextWithSpan(ctx, tr.Root())
	}
	t0 := time.Now()
	res, err := eng.Query(qctx, engine.Request{Query: r.query.SPaQL, Options: &opts})
	lat := float64(time.Since(t0).Microseconds()) / 1e3
	if tr != nil {
		tr.Root().End()
		rs.spans.add(tr.Data())
	}
	if err != nil {
		rs.fail("%s: %v", r.key, err)
		return
	}
	rs.queryMS = append(rs.queryMS, lat)
	rs.byRequest[r.key] = append(rs.byRequest[r.key], lat)
	if res.Feasible {
		rs.feasible++
	}
	rs.solves++
	rs.iterations += len(res.Iterations)
	rs.finalMSum += res.M
	for _, it := range res.Iterations {
		if it.Feasible {
			rs.feasibleIters++
		}
	}
	if res.Degraded || res.HitLimit(&opts) {
		rs.fail("%s: answer cut short by a budget", r.key)
		return
	}
	a := answer{feasible: res.Feasible, objective: res.Objective, pkg: sortedPackage(res.Multiplicities())}
	if err := s.check(res.Rel, a.pkg); err != nil {
		rs.fail("%s: %v", r.key, err)
		return
	}
	if err := rs.book.record(r.key, a.hash()); err != nil {
		rs.fail("%v", err)
		return
	}
	if f, ok := first[r.key]; ok {
		f.served++
	} else {
		first[r.key] = &solveFirst{req: r, res: res, served: 1}
	}
}

// revalidate re-validates every distinct feasible answer through a separate
// core.Validate call, which must reach the same verdict and the same
// objective bits. A mismatch fails every operation that served the answer.
func (s solveSpec) revalidate(ctx context.Context, db *spq.DB, first map[string]*solveFirst, rs *runStats) {
	for key, f := range first {
		if !f.res.Feasible {
			continue
		}
		if err := revalidateOne(ctx, db, f.req, f.res); err != nil {
			for i := 0; i < f.served; i++ {
				rs.fail("%s: %v", key, err)
			}
		}
	}
}

func revalidateOne(ctx context.Context, db *spq.DB, r solveRequest, res *engine.Result) error {
	q, err := spaql.Parse(r.query.SPaQL)
	if err != nil {
		return err
	}
	rel, ok := db.Table(q.Table)
	if !ok {
		return fmt.Errorf("unknown table %q", q.Table)
	}
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		return err
	}
	if silp.N != len(res.X) {
		return fmt.Errorf("re-validation: %d variables, answer has %d", silp.N, len(res.X))
	}
	opts := r.opts
	opts.Parallelism = -1
	v, err := core.Validate(ctx, silp, res.X, &opts)
	if err != nil {
		return fmt.Errorf("re-validation: %w", err)
	}
	if v.Feasible != res.Feasible || math.Float64bits(v.Objective) != math.Float64bits(res.Objective) {
		return fmt.Errorf("re-validation gives feasible=%t objective=%v, answer says feasible=%t objective=%v",
			v.Feasible, v.Objective, res.Feasible, res.Objective)
	}
	return nil
}
