package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"spq"
	"spq/internal/core"
	"spq/internal/workload"
)

// dataSeed fixes the generated dataset, as the repository's figure benches
// do: the workload seed varies the request stream, not the data, so that
// runs at different seeds measure comparable work.
const dataSeed = 42

// env is one set-up database: the generated workload instance and the
// relations registered from it.
type env struct {
	inst   *workload.Instance
	db     *spq.DB
	tables []string
	genS   float64
	regS   float64
}

// buildEnv generates a workload instance and registers the named tables in
// sorted order. spq.DB derives each table's means stream from how many
// tables were registered before it, so any other order (map order, say)
// would give stochastic means, and with them answers, that change from run
// to run.
func buildEnv(gen func(workload.Config) *workload.Instance, cfg workload.Config, tables []string) (*env, error) {
	t0 := time.Now()
	inst := gen(cfg)
	t1 := time.Now()
	db := spq.NewDB()
	if cfg.MeansM > 0 {
		db.MeansM = cfg.MeansM
	}
	names := append([]string(nil), tables...)
	slices.Sort(names)
	names = slices.Compact(names)
	for _, name := range names {
		rel, ok := inst.Tables[name]
		if !ok {
			return nil, fmt.Errorf("workload %s has no table %q", inst.Name, name)
		}
		if err := db.Register(rel); err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
	}
	return &env{inst: inst, db: db, tables: names, genS: t1.Sub(t0).Seconds(), regS: time.Since(t1).Seconds()}, nil
}

// setupRep is the timing of one set-up: workload generation, registration,
// and the whole set-up including engine start (and, for serve-mixed, the
// listener).
type setupRep struct{ gen, reg, total float64 }

// Set-up repeats at least minSetupReps times and until minSetupTime has
// passed, at most maxSetupReps times; setup_s is the median. Cheap set-ups
// repeat often enough that the median is stable; galaxy-scan's multi-second
// set-up runs the minimum.
const (
	minSetupReps = 3
	maxSetupReps = 50
	minSetupTime = time.Second
)

// repeatSetup runs once repeatedly under the policy above, releases every
// set-up but the last, and returns the last with all the timings.
func repeatSetup[T any](once func() (T, setupRep, error), release func(T)) (T, []setupRep, error) {
	var reps []setupRep
	var last T
	start := time.Now()
	for len(reps) < maxSetupReps && (len(reps) < minSetupReps || time.Since(start) < minSetupTime) {
		if len(reps) > 0 && release != nil {
			release(last)
		}
		var zero T
		last = zero
		runtime.GC() // every set-up starts from a collected heap
		v, rep, err := once()
		if err != nil {
			return zero, nil, err
		}
		last = v
		reps = append(reps, rep)
	}
	return last, reps, nil
}

// solveOptions are the evaluation options of every request: the settings
// of the repository's figure benches (M̂=2000, M from 10 to 60 in steps of
// 10), with the validation budget per workload.
func solveOptions(seed uint64, fixedZ, validationM int) core.Options {
	return core.Options{
		Seed:        seed,
		ValidationM: validationM,
		InitialM:    10,
		IncrementM:  10,
		MaxM:        60,
		FixedZ:      fixedZ,
		SolverTime:  10 * time.Second,
		TimeLimit:   30 * time.Second,
	}
}
