package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spq"
	"spq/client"
	"spq/internal/engine"
	"spq/internal/relation"
	"spq/internal/stream"
	"spq/internal/workload"
)

// serveSpec is the serving workload: the v1 HTTP API driven by spq/client
// against engine.Handler on loopback, in this process. runtime.NumCPU()
// clients take operations in order from one seeded sequence and each waits
// for its answer before taking the next (a closed loop, as spq -server and
// client.Run callers behave).
type serveSpec struct {
	n       int
	queries []string
	// seeds is the number of solver seeds per query: the request pool holds
	// len(queries)×seeds distinct requests.
	seeds int
	// zipfS is the Zipf exponent of the query draws over the pool.
	zipfS float64
	check detCheck
}

// serveMixed pools Portfolio Q3–Q8 at N=40 × 64 seeds: 384 requests, more
// than the engine's 256-entry default result cache, while the hot head of
// the Zipf draws fits in it.
var serveMixed = serveSpec{
	n:       40,
	queries: []string{"Q3", "Q4", "Q5", "Q6", "Q7", "Q8"},
	seeds:   64,
	zipfS:   1.1,
	check:   priceAtMost(1000),
}

// deltaEvery spaces the deltas: one operation in ten.
const deltaEvery = 10

// serveValidationM is M̂ of every pooled request.
const serveValidationM = 2000

// serveReq is one pooled request.
type serveReq struct {
	key   string
	table string
	req   client.SubmitRequest
}

// pool lists the distinct requests in a fixed order.
func (s serveSpec) pool(inst *workload.Instance) ([]serveReq, error) {
	var out []serveReq
	for _, id := range s.queries {
		q, ok := inst.QueryByID(id)
		if !ok {
			return nil, fmt.Errorf("workload %s has no query %s", inst.Name, id)
		}
		for seed := 1; seed <= s.seeds; seed++ {
			o := solveOptions(uint64(seed), q.FixedZ, serveValidationM)
			out = append(out, serveReq{
				key:   fmt.Sprintf("%s/seed%d", id, seed),
				table: q.Table,
				req: client.SubmitRequest{Query: q.SPaQL, Options: &client.SolveOptions{
					Seed: o.Seed, ValidationM: o.ValidationM, InitialM: o.InitialM,
					IncrementM: o.IncrementM, MaxM: o.MaxM, FixedZ: o.FixedZ,
					SolverTimeMS: o.SolverTime.Milliseconds(), TimeLimitMS: o.TimeLimit.Milliseconds(),
				}},
			})
		}
	}
	return out, nil
}

// op is one operation of the sequence: a pooled query, or a delta that
// rewrites one cell.
type op struct {
	idx   int
	delta bool
	req   int // pool index
	table string
	col   string
	tuple int
	value float64
}

// opSeq hands out the seeded operation sequence in order to concurrent
// clients.
type opSeq struct {
	mu     sync.Mutex
	rng    *rand.Rand
	zipf   *rand.Zipf
	perm   []int // Zipf rank → pool index
	next   int
	tables []string
	cols   map[string]map[string][]float64 // table → column → generated values
}

// newOpSeq builds the operation sequence of a workload seed over a pool of
// poolSize requests. cols holds the generated values of the delta columns.
//
// The popularity ranking of the pool is fixed with the dataset; the
// workload seed draws the operation stream over it. With a seeded ranking,
// runs differ by which requests are hot, and so by how much they re-solve
// after each price delta, rather than by the stream alone.
func (s serveSpec) newOpSeq(seed uint64, poolSize int, tables []string, cols map[string]map[string][]float64) *opSeq {
	rng := rand.New(rand.NewSource(int64(seed)))
	return &opSeq{
		rng:    rng,
		zipf:   rand.NewZipf(rng, s.zipfS, 1, uint64(poolSize-1)),
		perm:   rand.New(rand.NewSource(dataSeed)).Perm(poolSize),
		tables: tables,
		cols:   cols,
	}
}

// take returns the next operation.
//
// Every tenth operation is a delta; the rest are queries drawn from the
// Zipf distribution. Deltas cycle through the tables and alternate between
// price and volatility cells, so every run applies the same mix. Every
// query sums price, so a price delta's footprint hits the table's cached
// answers (they are invalidated, and the next identical request re-solves
// warm); no query reads volatility, so those cached answers are retained.
// Each delta writes back the value the cell was generated with: the engine
// invalidates by footprint, not by value, so invalidation, warm re-solves,
// summary patching and copy-on-write run at full cost, while every answer
// stays a pure function of its request and can be checked against every
// other answer to the same request.
func (q *opSeq) take() op {
	q.mu.Lock()
	defer q.mu.Unlock()
	o := op{idx: q.next}
	q.next++
	if o.idx%deltaEvery != deltaEvery-1 {
		o.req = q.perm[q.zipf.Uint64()]
		return o
	}
	k := o.idx / deltaEvery
	o.delta = true
	o.col = "price"
	if k%2 == 1 {
		o.col = "volatility"
	}
	o.table = q.tables[(k/2)%len(q.tables)]
	vals := q.cols[o.table][o.col]
	o.tuple = q.rng.Intn(len(vals))
	o.value = vals[o.tuple]
	return o
}

// countingTransport counts the HTTP requests the client makes on behalf of
// queries (submissions and polls).
type countingTransport struct {
	base    http.RoundTripper
	queries atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasPrefix(r.URL.Path, "/v1/queries") && !strings.HasSuffix(r.URL.Path, "/trace") {
		t.queries.Add(1)
	}
	return t.base.RoundTrip(r)
}

// server is one set-up serving stack.
type server struct {
	env       *env
	eng       *engine.Engine
	srv       *http.Server
	served    chan error
	transport *countingTransport
	client    *client.Client
}

// stop shuts the listener down and waits for it to exit.
func (sv *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = sv.srv.Shutdown(ctx) // a deadline here only leaves connections to process exit
	<-sv.served
	sv.transport.base.(*http.Transport).CloseIdleConnections()
}

// setup builds the database, the engine, the loopback listener and the
// client.
func (s serveSpec) setup(tables []string, clients int) (*server, setupRep, error) {
	start := time.Now()
	e, err := buildEnv(workload.Portfolio, workload.Config{N: s.n, Seed: dataSeed}, tables)
	if err != nil {
		return nil, setupRep{}, err
	}
	eng := spq.NewEngine(e.db, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, setupRep{}, fmt.Errorf("listen: %w", err)
	}
	sv := &server{env: e, eng: eng, srv: &http.Server{Handler: eng.Handler()}, served: make(chan error, 1)}
	go func() { sv.served <- sv.srv.Serve(ln) }()
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 2 * clients
	sv.transport = &countingTransport{base: base}
	sv.client, err = client.New("http://"+ln.Addr().String(),
		client.WithRetries(0), // refusals are counted, not retried away
		client.WithHTTPClient(&http.Client{Transport: sv.transport}))
	if err != nil {
		sv.stop()
		return nil, setupRep{}, err
	}
	return sv, setupRep{gen: e.genS, reg: e.regS, total: time.Since(start).Seconds()}, nil
}

// run measures the workload for cfg.seconds: clients stop taking operations
// at the deadline and finish the one in hand.
func (s serveSpec) run(cfg runConfig) (*runStats, error) {
	clients := runtime.NumCPU()
	// The checks read tables of a separate, never-mutated instance: the
	// served tables change version under the clients' feet.
	ref := workload.Portfolio(workload.Config{N: s.n, Seed: dataSeed})
	pool, err := s.pool(ref)
	if err != nil {
		return nil, err
	}
	var tables []string
	for _, r := range pool {
		tables = append(tables, r.table)
	}
	sv, reps, err := repeatSetup(func() (*server, setupRep, error) { return s.setup(tables, clients) },
		func(sv *server) { sv.stop() })
	if err != nil {
		return nil, err
	}
	defer sv.stop()
	book, err := openBook(cfg.answers)
	if err != nil {
		return nil, err
	}

	cols := map[string]map[string][]float64{}
	for _, t := range sv.env.tables {
		cols[t] = map[string][]float64{}
		for _, col := range []string{"price", "volatility"} {
			vals, err := ref.Tables[t].Det(col)
			if err != nil {
				return nil, err
			}
			cols[t][col] = vals
		}
	}
	seq := s.newOpSeq(cfg.seed, len(pool), sv.env.tables, cols)

	rs := newRunStats(reps, book)
	var mu sync.Mutex // guards rs across clients
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds)*time.Second+120*time.Second)
	defer cancel()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapPeak()
	s0 := stream.Counters()
	cells0 := sv.eng.Stats().DeltaCells
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := seq.take()
				if o.delta {
					s.delta(ctx, sv.client, o, rs, &mu)
				} else {
					s.query(ctx, sv.client, pool[o.req], ref.Tables[pool[o.req].table], cfg.traced && o.idx%2 == 0, cfg.traced, rs, &mu)
				}
			}
		}()
	}
	wg.Wait()
	rs.measuredS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	rs.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rs.heapPeakBytes = heap.end()
	rs.stream = streamDelta(s0, stream.Counters())
	st := sv.eng.Stats()
	rs.eng = engineCounters(st)
	rs.deltaCells = st.DeltaCells - cells0
	rs.queryHTTP = sv.transport.queries.Load()
	return rs, nil
}

// delta applies one delta operation.
func (s serveSpec) delta(ctx context.Context, c *client.Client, o op, rs *runStats, mu *sync.Mutex) {
	t0 := time.Now()
	_, err := c.ApplyDelta(ctx, o.table, &client.DeltaRequest{Set: map[string]map[int]float64{o.col: {o.tuple: o.value}}})
	lat := float64(time.Since(t0).Microseconds()) / 1e3
	mu.Lock()
	defer mu.Unlock()
	rs.attempted++
	if err != nil {
		rs.fail("delta %s.%s[%d]: %v", o.table, o.col, o.tuple, err)
		return
	}
	rs.deltaMS = append(rs.deltaMS, lat)
}

// query runs one pooled request through Submit and Stream (client.Run with
// the progress events kept, one per validated candidate) and checks the
// answer against the reference relation and every other answer to the
// request. traced marks operations whose job trace the benchmark folds in;
// compare marks a traced run, where untraced operations time the baseline
// of the tracing overhead.
func (s serveSpec) query(ctx context.Context, c *client.Client, r serveReq, ref *relation.Relation, traced, compare bool, rs *runStats, mu *sync.Mutex) {
	feasibleCands := 0
	t0 := time.Now()
	job, err := c.Submit(ctx, r.req)
	if err == nil {
		job, err = c.Stream(ctx, job.ID, func(p client.Progress) {
			if p.Feasible {
				feasibleCands++
			}
		})
	}
	lat := float64(time.Since(t0).Microseconds()) / 1e3
	var tr *client.TraceSpan
	if err == nil && traced {
		tr = job.Trace
		if tr == nil {
			tr, err = c.Trace(ctx, job.ID)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	rs.attempted++
	if err != nil {
		rs.fail("%s: %v", r.key, err)
		return
	}
	if tr != nil {
		rs.spans.add(fromWire(tr))
		rs.clientOverheadMS = append(rs.clientOverheadMS, lat-float64(tr.DurationUS)/1e3)
	}
	if compare {
		if traced {
			rs.tracedMS = append(rs.tracedMS, lat)
		} else {
			rs.untracedMS = append(rs.untracedMS, lat)
		}
	}
	if job.State != client.JobSucceeded || job.Result == nil {
		err := job.Err()
		if err == nil {
			err = errors.New("no result")
		}
		rs.fail("%s: job %s: %v", r.key, job.State, err)
		return
	}
	res := job.Result
	rs.queryMS = append(rs.queryMS, lat)
	if res.Feasible {
		rs.feasible++
	}
	if !res.ResultCacheHit {
		rs.solves++
		rs.iterations += res.Iterations
		rs.finalMSum += res.M
		rs.feasibleIters += feasibleCands
	}
	if res.Degraded {
		rs.fail("%s: answer cut short by a budget", r.key)
		return
	}
	if err := s.check(ref, res.Package); err != nil {
		rs.fail("%s: %v", r.key, err)
		return
	}
	a := answer{feasible: res.Feasible, objective: res.Objective, pkg: res.Package}
	if err := rs.book.record(r.key, a.hash()); err != nil {
		rs.fail("%v", err)
	}
}
