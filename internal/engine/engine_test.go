package engine

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
)

// testCatalog is a minimal Catalog over a name → relation map.
type testCatalog map[string]*relation.Relation

func (c testCatalog) Table(name string) (*relation.Relation, bool) {
	rel, ok := c[strings.ToLower(name)]
	return rel, ok
}

// newCatalog builds a small tractable stocks table with precomputed means.
func newCatalog(t testing.TB, n int) testCatalog {
	t.Helper()
	rel := relation.New("stocks", n)
	price := make([]float64, n)
	gains := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		price[i] = float64(40 + 7*(i%9))
		gains[i] = dist.Normal{Mu: 0.5 + float64(i%5)*0.4, Sigma: 0.5 + float64(i%3)*0.5}
	}
	if err := rel.AddDet("price", price); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{AttrID: 1, Dists: gains}); err != nil {
		t.Fatal(err)
	}
	rel.ComputeMeans(rng.NewSource(7), 200)
	return testCatalog{"stocks": rel}
}

const testQuery = `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= -5 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

func smallCoreOptions() *core.Options {
	return &core.Options{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60}
}

func TestEngineQueryAndPlanCache(t *testing.T) {
	cat := newCatalog(t, 15)
	// Result cache off so the repeated query exercises the plan cache (with
	// it on, the identical request would be served without planning at all;
	// that path is covered by the resultcache tests).
	e := New(cat, &Options{ResultCacheSize: -1})

	res, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("query infeasible: %+v", res.Solution)
	}
	if res.CacheHit {
		t.Fatal("first query reported a plan-cache hit")
	}
	if len(res.Multiplicities()) == 0 {
		t.Fatal("empty package")
	}

	// Same query, reformatted: must hit the cache and return the same answer.
	reformatted := strings.Join(strings.Fields(testQuery), "  \n\t ")
	res2, err := e.Query(context.Background(), Request{Query: reformatted, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("reformatted query missed the plan cache")
	}
	if res2.Objective != res.Objective {
		t.Fatalf("cached plan changed the answer: %v vs %v", res2.Objective, res.Objective)
	}

	st := e.Stats()
	if st.Queries != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 2 queries, 1 hit, 1 miss", st)
	}
}

// TestEnginePlanCacheCommentDisambiguation guards the cache-key choice:
// two texts that differ only inside a "--" line comment are different
// statements (the comment can swallow a clause), so they must not share a
// plan — while a genuinely equivalent reformatting must.
func TestEnginePlanCacheCommentDisambiguation(t *testing.T) {
	cat := newCatalog(t, 12)
	e := New(cat, nil)
	withObjective := "SELECT PACKAGE(*) FROM stocks SUCH THAT SUM(price) <= 300 -- note\nMAXIMIZE EXPECTED SUM(gain)"
	// Same bytes on one line: the comment swallows MAXIMIZE — no objective.
	withoutObjective := strings.ReplaceAll(withObjective, "\n", " ")

	r1, err := e.Query(context.Background(), Request{Query: withObjective, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Query.Objective == nil {
		t.Fatal("first query lost its objective")
	}
	r2, err := e.Query(context.Background(), Request{Query: withoutObjective, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatal("comment-swallowed query shared the commented query's plan")
	}
	if r2.Query.Objective != nil {
		t.Fatal("comment-swallowed query kept an objective it does not have")
	}
}

func TestEnginePlanCacheInvalidation(t *testing.T) {
	cat := newCatalog(t, 12)
	e := New(cat, nil)
	if _, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()}); err != nil {
		t.Fatal(err)
	}

	// Mutating the relation bumps its version: the cached plan must die.
	rel, _ := cat.Table("stocks")
	means, err := rel.Means("gain")
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.SetMeans("gain", append([]float64(nil), means...)); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("plan survived a relation version bump")
	}
}

func TestEngineAdmissionControl(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{MaxInFlight: 1, MaxQueue: -1, Parallelism: 1})
	// MaxQueue < 0 normalizes to... nothing: -1 means no waiters allowed.

	// Occupy the only solve slot through the scheduler seam (what a running
	// query holds while it solves).
	if err := e.sched.Acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	defer e.sched.Release("")

	// With the slot held and no queue capacity, a query must be rejected
	// immediately rather than waiting.
	start := time.Now()
	_, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("rejection was not immediate")
	}
	if e.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", e.Stats().Rejected)
	}

	// A query that waits for the slot respects its context deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	e2 := New(cat, &Options{MaxInFlight: 1, MaxQueue: 4, Parallelism: 1})
	if err := e2.sched.Acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	defer e2.sched.Release("")
	_, err = e2.Query(ctx, Request{Query: testQuery, Options: smallCoreOptions()})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query err = %v, want DeadlineExceeded", err)
	}
}

func TestEngineQueryTimeout(t *testing.T) {
	cat := newCatalog(t, 40)
	e := New(cat, &Options{Parallelism: 2})
	hard := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 2000 AND
		SUM(gain) >= 500 WITH PROBABILITY >= 0.99
		MAXIMIZE EXPECTED SUM(gain)`
	_, err := e.Query(context.Background(), Request{
		Query:   hard,
		Timeout: 100 * time.Millisecond,
		Options: &core.Options{Seed: 1, ValidationM: 200000, InitialM: 50, IncrementM: 50, MaxM: 1000},
	})
	// The engine turns the request deadline into a solver budget; with no
	// feasible incumbent by the cutoff the query degrades to ErrDegraded
	// (429) rather than running into the raw context deadline. Accept the
	// context error too: whether the budget or the deadline fires first
	// depends on how long the oversized validation round overruns.
	if !errors.Is(err, ErrDegraded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDegraded or DeadlineExceeded", err)
	}
}

func TestEngineUnknownTableAndMethod(t *testing.T) {
	e := New(newCatalog(t, 10), nil)
	if _, err := e.Query(context.Background(), Request{Query: strings.Replace(testQuery, "stocks", "nope", 1)}); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := e.Query(context.Background(), Request{Query: testQuery, Method: "quantum"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestHTTPHandler(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	srv := v1Server(t, e)

	// Liveness.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Query: submit, then poll the job to its result.
	job := waitJob(t, srv.URL, decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query:   testQuery,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60},
	}), http.StatusAccepted))
	res := job.Result
	if job.State != client.JobSucceeded || res == nil || !res.Feasible || len(res.Package) == 0 {
		t.Fatalf("bad job: state %q, result %+v, error %+v", job.State, res, job.Error)
	}
	// The wire answer is the synchronous engine path's answer.
	sres, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != sres.Objective || res.M != sres.M || len(res.Package) != len(sres.Multiplicities()) {
		t.Fatalf("wire (objective %v, M %d, |package| %d) != sync (%v, %d, %d)",
			res.Objective, res.M, len(res.Package), sres.Objective, sres.M, len(sres.Multiplicities()))
	}

	// Malformed query: rejected at submit.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: "SELECT NONSENSE"}),
		http.StatusBadRequest, client.CodeInvalidQuery)

	// Stats reflect the traffic.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Queries < 3 {
		t.Fatalf("stats queries = %d, want >= 3", st.Queries)
	}
	if st.JobsSubmitted != 1 || st.JobsCompleted != 1 {
		t.Fatalf("stats jobs submitted/completed = %d/%d, want 1/1", st.JobsSubmitted, st.JobsCompleted)
	}
	// The successful query ran MILP solves through the branch-and-bound
	// search; the node/worker counters must surface that.
	if st.MilpSolves < 1 || st.MilpNodes < 1 {
		t.Fatalf("stats milp solves/nodes = %d/%d, want ≥ 1 each", st.MilpSolves, st.MilpNodes)
	}
	if st.MilpWorkersMax < 1 {
		t.Fatalf("stats milp_workers_max = %d, want ≥ 1", st.MilpWorkersMax)
	}
}

// TestEngineConcurrentQueries hammers one engine from many goroutines; run
// under -race this is the data-race check for the session layer + plan
// cache + parallel validation combination.
func TestEngineConcurrentQueries(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{MaxInFlight: 4, Parallelism: 2})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	objs := make([]float64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
			if err != nil {
				errs[g] = err
				return
			}
			objs[g] = res.Objective
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < 8; g++ {
		if objs[g] != objs[0] {
			t.Fatalf("concurrent queries diverged: %v vs %v", objs[g], objs[0])
		}
	}
}
