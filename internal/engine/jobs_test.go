package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/sketch"
)

// hardRequest builds a query that cannot finish quickly: a near-infeasible
// probabilistic bound over many tuples with a huge validation population.
func hardRequest() Request {
	return Request{
		Query: `SELECT PACKAGE(*) FROM stocks SUCH THAT
			SUM(price) <= 2000 AND
			SUM(gain) >= 500 WITH PROBABILITY >= 0.99
			MAXIMIZE EXPECTED SUM(gain)`,
		Options: &core.Options{Seed: 1, ValidationM: 500000, InitialM: 50, IncrementM: 50, MaxM: 1000},
	}
}

// waitState polls the job until it reaches want (fatal after a deadline).
func waitState(t *testing.T, j *Job, want client.JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s := j.Snapshot(0); s.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached state %q (now %q)", want, j.Snapshot(0).State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobLifecycleParity is the async/sync equivalence check: a submitted
// job must record progress while solving and finish with a result
// bit-identical to the synchronous Engine.Query path for the same seed.
func TestJobLifecycleParity(t *testing.T) {
	cat := newCatalog(t, 15)
	// Result cache off so both paths actually solve.
	e := New(cat, &Options{ResultCacheSize: -1})
	req := Request{Query: testQuery, Options: smallCoreOptions()}

	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	res, jerr := j.Result()
	if jerr != nil {
		t.Fatalf("job failed: %v", jerr)
	}

	snap := j.Snapshot(0)
	if snap.State != client.JobSucceeded {
		t.Fatalf("state = %q, want succeeded", snap.State)
	}
	if len(snap.Events) == 0 {
		t.Fatal("job recorded no progress events")
	}
	for _, ev := range snap.Events {
		if ev.Iteration < 1 || ev.M <= 0 {
			t.Fatalf("malformed progress event: %+v", ev)
		}
	}
	last := snap.Events[len(snap.Events)-1]
	if last.BestObjective != res.Objective {
		t.Fatalf("final event best objective %v != result objective %v", last.BestObjective, res.Objective)
	}
	if snap.Result == nil || !snap.Result.Feasible || len(snap.Result.Package) == 0 {
		t.Fatalf("bad wire result: %+v", snap.Result)
	}

	// Synchronous path, same request: must be bit-identical.
	sres, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Objective != res.Objective || sres.M != res.M || sres.Z != res.Z {
		t.Fatalf("async (obj=%v M=%d Z=%d) != sync (obj=%v M=%d Z=%d)",
			res.Objective, res.M, res.Z, sres.Objective, sres.M, sres.Z)
	}
	if len(sres.X) != len(res.X) {
		t.Fatalf("package length diverged: %d vs %d", len(res.X), len(sres.X))
	}
	for i := range sres.X {
		if sres.X[i] != res.X[i] {
			t.Fatalf("package diverged at %d: %v vs %v", i, res.X[i], sres.X[i])
		}
	}
}

// TestJobSketchProgressPhases: a method=sketch job streams phase-labelled
// progress from the pipeline's sub-solves, and the job-level best-so-far
// stays consistent with the final result even though each shard tracks its
// own incumbent.
func TestJobSketchProgressPhases(t *testing.T) {
	cat := newCatalog(t, 60)
	e := New(cat, &Options{ResultCacheSize: -1})
	j, err := e.Submit(Request{
		Query:   testQuery,
		Method:  "sketch",
		Options: smallCoreOptions(),
		Sketch:  &sketch.Options{GroupSize: 8, MaxCandidates: 24, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("sketch job did not finish")
	}
	if _, jerr := j.Result(); jerr != nil {
		t.Fatalf("sketch job failed: %v", jerr)
	}
	snap := j.Snapshot(0)
	phases := map[string]bool{}
	for _, ev := range snap.Events {
		phases[ev.Phase] = true
	}
	if !phases["refine"] && !phases["fallback"] {
		t.Fatalf("no refine/fallback phase in events: %v", phases)
	}
	sawShard := false
	for ph := range phases {
		if strings.HasPrefix(ph, "sketch/shard") {
			sawShard = true
		}
	}
	if !sawShard && !phases["fallback"] {
		t.Fatalf("no shard sketch phase in events: %v", phases)
	}
	// The refine's solution is the job's final result; the cross-phase
	// best must be at least as good (feasibility-first, maximize sense).
	if snap.Result.Feasible && !snap.BestFeasible {
		t.Fatal("feasible result but infeasible job-level best")
	}
	if snap.BestFeasible && snap.BestObjective < snap.Result.Objective {
		t.Fatalf("best objective %v regressed below final %v", snap.BestObjective, snap.Result.Objective)
	}
}

// TestQueryPreCancelledContext: an already-cancelled context never
// evaluates, not even from a warm result cache — the guarantee the job
// manager relies on so a job cancelled while queued cannot "succeed".
func TestQueryPreCancelledContext(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, nil) // result cache on
	req := Request{Query: testQuery, Options: smallCoreOptions()}
	if _, err := e.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm-cache query on cancelled ctx: err = %v, want Canceled", err)
	}
}

// TestJobPanicContainment: a panic inside the evaluation fails the one job
// (code internal) instead of crashing the daemon; the caller's Progress
// callback is chained, not replaced.
func TestJobPanicContainment(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{ResultCacheSize: -1})
	calls := 0
	j, err := e.Submit(Request{
		Query:   testQuery,
		Options: smallCoreOptions(),
		Progress: func(core.Progress) {
			calls++
			panic("synthetic progress panic")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("panicking job did not finish")
	}
	if calls == 0 {
		t.Fatal("user progress callback was not chained")
	}
	snap := j.Snapshot(0)
	if snap.State != client.JobFailed {
		t.Fatalf("state = %q, want failed", snap.State)
	}
	if snap.Error == nil || snap.Error.Code != client.CodeInternal {
		t.Fatalf("error = %+v, want code internal", snap.Error)
	}
	// The engine must still work after the contained panic.
	if _, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()}); err != nil {
		t.Fatalf("engine broken after contained panic: %v", err)
	}
}

// TestJobCancelFreesSlot cancels a running job and checks (a) the state
// machine lands on cancelled, (b) the admission slot is returned so a new
// query gets through an engine with a single slot and no queue.
func TestJobCancelFreesSlot(t *testing.T) {
	cat := newCatalog(t, 40)
	e := New(cat, &Options{MaxInFlight: 1, MaxQueue: -1, Parallelism: 1, MaxJobs: 4})

	j, err := e.Submit(hardRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, client.JobRunning)

	if _, ok := e.CancelJob(j.ID()); !ok {
		t.Fatal("CancelJob did not find the job")
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job did not finish")
	}
	if s := j.Snapshot(0); s.State != client.JobCancelled {
		t.Fatalf("state = %q, want cancelled", s.State)
	}
	if _, jerr := j.Result(); jerr == nil {
		t.Fatal("cancelled job reported no error")
	}

	// The only solve slot must be free again: with MaxQueue<0 a held slot
	// would reject this query immediately.
	if _, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()}); err != nil {
		t.Fatalf("query after cancel failed: %v", err)
	}
	if got := e.Stats().JobsCancelled; got != 1 {
		t.Fatalf("JobsCancelled = %d, want 1", got)
	}
}

// TestJobCancelMidMILP is the cancellation-latency regression test at the
// job level: a DELETE on a job whose evaluation is deep inside a single long
// LP solve must reach cancelled within iterations of the simplex, not after
// the solve finishes. The query is built so the very first MILP's root LP
// relaxation alone runs for many seconds (a huge unconstrained knapsack:
// one bound flip per tuple, each with a full pricing scan), which made the
// pre-fix behaviour — Cancel polled only between LP solves — flaky-slow by
// construction.
func TestJobCancelMidMILP(t *testing.T) {
	cat := newCatalog(t, 30000)
	e := New(cat, &Options{MaxInFlight: 1, Parallelism: 1, ResultCacheSize: -1})
	j, err := e.Submit(Request{
		// The budget never binds, so the root LP walks all 30k tuples.
		Query: `SELECT PACKAGE(*) FROM stocks SUCH THAT
			SUM(price) <= 2000000000 AND
			SUM(gain) >= 100 WITH PROBABILITY >= 0.95
			MAXIMIZE EXPECTED SUM(gain)`,
		Timeout: 10 * time.Minute,
		Options: &core.Options{Seed: 1, ValidationM: 1000, InitialM: 20, MaxM: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, client.JobRunning)
	// Land well inside the root LP solve (it runs for many seconds; under
	// the race detector, tens of seconds).
	settle := 500 * time.Millisecond
	if raceEnabled {
		settle = 2 * time.Second
	}
	time.Sleep(settle)

	cancelled := time.Now()
	if _, ok := e.CancelJob(j.ID()); !ok {
		t.Fatal("CancelJob did not find the job")
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled job never finished")
	}
	latency := time.Since(cancelled)
	bound := 3 * time.Second
	if raceEnabled {
		bound = 8 * time.Second
	}
	if latency > bound {
		t.Fatalf("cancel→done latency %v (bound %v): cancellation waited for the LP solve", latency, bound)
	}
	if s := j.Snapshot(0); s.State != client.JobCancelled {
		t.Fatalf("state = %q, want cancelled", s.State)
	}
}

// TestJobHistoryEviction bounds the finished-job history.
func TestJobHistoryEviction(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{JobHistory: 2, ResultCacheSize: -1})

	var ids []string
	for k := 0; k < 4; k++ {
		opts := smallCoreOptions()
		opts.Seed = uint64(k + 1)
		j, err := e.Submit(Request{Query: testQuery, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatal("job did not finish")
		}
		ids = append(ids, j.ID())
	}

	if n := len(e.Jobs()); n != 2 {
		t.Fatalf("tracked jobs = %d, want 2", n)
	}
	if _, ok := e.JobByID(ids[0]); ok {
		t.Fatal("oldest job survived eviction")
	}
	if _, ok := e.JobByID(ids[3]); !ok {
		t.Fatal("newest job was evicted")
	}
	st := e.Stats()
	if st.JobsEvicted != 2 || st.JobsSubmitted != 4 || st.JobsCompleted != 4 {
		t.Fatalf("stats = evicted %d submitted %d completed %d, want 2/4/4",
			st.JobsEvicted, st.JobsSubmitted, st.JobsCompleted)
	}
}

// TestJobHistoryEvictsInCompletionOrder: a long job that finishes after
// more than JobHistory short jobs submitted behind it is the newest
// finished job, so it must survive eviction and stay pollable; the oldest
// finished short job goes instead.
func TestJobHistoryEvictsInCompletionOrder(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{JobHistory: 2, MaxInFlight: 2, ResultCacheSize: -1})

	long, err := e.Submit(hardRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, client.JobRunning)
	var short []string
	for k := 0; k < 3; k++ {
		opts := smallCoreOptions()
		opts.Seed = uint64(k + 1)
		j, err := e.Submit(Request{Query: testQuery, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatal("short job did not finish")
		}
		short = append(short, j.ID())
	}
	e.CancelJob(long.ID())
	select {
	case <-long.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled long job did not finish")
	}

	if _, ok := e.JobByID(long.ID()); !ok {
		t.Fatal("long job evicted the moment it finished")
	}
	for k, id := range short {
		_, ok := e.JobByID(id)
		if want := k == 2; ok != want {
			t.Fatalf("short job %d tracked = %v, want %v", k, ok, want)
		}
	}
	if n := len(e.Jobs()); n != 2 {
		t.Fatalf("tracked jobs = %d, want 2", n)
	}
	if st := e.Stats(); st.JobsEvicted != 2 {
		t.Fatalf("evicted %d jobs, want 2", st.JobsEvicted)
	}
}

// TestSubmitValidation: malformed queries and unknown methods fail at
// submit time, and MaxJobs bounds the active set with ErrOverloaded.
func TestSubmitValidation(t *testing.T) {
	cat := newCatalog(t, 40)
	e := New(cat, &Options{MaxJobs: 1, MaxInFlight: 1, Parallelism: 1})

	if _, err := e.Submit(Request{Query: "SELECT NONSENSE"}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("parse failure err = %v, want ErrBadQuery", err)
	}
	if _, err := e.Submit(Request{Query: testQuery, Method: "quantum"}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method err = %v, want ErrUnknownMethod", err)
	}

	j, err := e.Submit(hardRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(Request{Query: testQuery, Options: smallCoreOptions()}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-MaxJobs submit err = %v, want ErrOverloaded", err)
	}
	e.CancelJob(j.ID())
	<-j.Done()
}
