package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spq/client"
)

func TestParseTenants(t *testing.T) {
	cfgs, err := ParseTenants("acme:3, free:1:2:8 ,bulk:2:0:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantConfig{
		{Name: "acme", Weight: 3},
		{Name: "free", Weight: 1, MaxInFlight: 2, MaxQueue: 8},
		{Name: "bulk", Weight: 2, MaxInFlight: 0, MaxQueue: 4},
	}
	if len(cfgs) != len(want) {
		t.Fatalf("got %d tenants, want %d", len(cfgs), len(want))
	}
	for i := range want {
		if cfgs[i] != want[i] {
			t.Fatalf("tenant %d = %+v, want %+v", i, cfgs[i], want[i])
		}
	}

	for _, bad := range []string{
		"acme",            // missing weight
		"acme:0",          // weight < 1
		"acme:x",          // weight not an integer
		":3",              // empty name
		"a:1,a:2",         // duplicate
		"a:1:-1",          // negative cap
		"a:1:2:-3",        // negative queue cap
		"a:1:2:3:4",       // too many fields
		"acme:3,,free:oo", // bad entry after empty (empty entries are skipped)
	} {
		if _, err := ParseTenants(bad); err == nil {
			t.Fatalf("ParseTenants(%q) accepted", bad)
		}
	}

	// Empty and all-whitespace configs are fine: no tenants.
	if cfgs, err := ParseTenants(" , "); err != nil || len(cfgs) != 0 {
		t.Fatalf("empty config: %v, %v", cfgs, err)
	}
}

func TestParseClasses(t *testing.T) {
	classes, err := ParseClasses("interactive:2000:50000, batch:60000")
	if err != nil {
		t.Fatal(err)
	}
	ic, ok := classes["interactive"]
	if !ok || ic.TimeLimit != 2*time.Second || ic.SolverNodes != 50000 {
		t.Fatalf("interactive = %+v", ic)
	}
	bc, ok := classes["batch"]
	if !ok || bc.TimeLimit != time.Minute || bc.SolverNodes != 0 {
		t.Fatalf("batch = %+v", bc)
	}

	for _, bad := range []string{
		"interactive",    // missing budget
		"interactive:-1", // negative time
		"interactive:x",  // not an integer
		":100",           // empty name
		"a:1,a:2",        // duplicate
		"a:100:-5",       // negative node budget
		"a:100:5:9",      // too many fields
	} {
		if _, err := ParseClasses(bad); err == nil {
			t.Fatalf("ParseClasses(%q) accepted", bad)
		}
	}
}

// runSchedulerTrial measures the scheduler's admission order under a full
// backlog: it plugs the capacity (via the default lane), queues `perTenant`
// one-shot waiters per tenant, unplugs, and counts the first `count`
// admissions. Because every waiter is enqueued before the first admission
// and each admitted worker immediately releases its slot (admitting the
// next), the admission sequence is pure DRR — independent of goroutine
// scheduling. Keep count <= perTenant so no lane can drain mid-measurement.
func runSchedulerTrial(t *testing.T, s *fairScheduler, tenants []string, perTenant, count int) map[string]int64 {
	t.Helper()
	if count > perTenant {
		t.Fatalf("count %d > perTenant %d: a lane could drain mid-measurement", count, perTenant)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Plug every slot so all waiters below enqueue before any is admitted.
	capacity := s.capacity
	for i := 0; i < capacity; i++ {
		if err := s.Acquire(ctx, ""); err != nil {
			t.Fatal(err)
		}
	}

	total := len(tenants) * perTenant
	admitted := make(chan string, total)
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		for w := 0; w < perTenant; w++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				if err := s.Acquire(ctx, tenant); err != nil {
					return // unblocked by the final cancel
				}
				admitted <- tenant
				s.Release(tenant)
			}(tenant)
		}
	}
	waitFor(t, "all waiters queued", func() bool { return s.Waiting() == total })
	for i := 0; i < capacity; i++ {
		s.Release("")
	}

	counts := make(map[string]int64)
	for i := 0; i < count; i++ {
		select {
		case tn := <-admitted:
			counts[tn]++
		case <-ctx.Done():
			t.Fatal("timed out draining admissions (possible starvation or lost wakeup)")
		}
	}
	cancel() // release the waiters beyond count
	wg.Wait()
	return counts
}

// TestFairSchedulerShareBounds is the property test for the DRR scheduler:
// random weight vectors and tenant counts, all lanes kept backlogged, the
// admission counts must converge to the weight proportions, and no tenant
// may starve.
func TestFairSchedulerShareBounds(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 8; trial++ {
		numTenants := 2 + rnd.Intn(4)
		capacity := 1 + rnd.Intn(3)
		var cfgs []TenantConfig
		var tenants []string
		sumW := 0
		for i := 0; i < numTenants; i++ {
			name := fmt.Sprintf("t%d", i)
			w := 1 + rnd.Intn(5)
			sumW += w
			cfgs = append(cfgs, TenantConfig{Name: name, Weight: w})
			tenants = append(tenants, name)
		}
		s := newFairScheduler(capacity, 1<<20, cfgs)
		const trialCount = 400
		counts := runSchedulerTrial(t, s, tenants, trialCount, trialCount)

		for i, name := range tenants {
			share := float64(counts[name]) / float64(trialCount)
			expect := float64(cfgs[i].Weight) / float64(sumW)
			if counts[name] == 0 {
				t.Fatalf("trial %d: tenant %s (weight %d) starved", trial, name, cfgs[i].Weight)
			}
			if diff := share - expect; diff < -0.1 || diff > 0.1 {
				t.Errorf("trial %d: tenant %s share = %.3f, want %.3f ± 0.1 (weights %v, capacity %d)",
					trial, name, share, expect, cfgs, capacity)
			}
		}
	}
}

// TestFairSchedulerStarvationFreedom pits a weight-100 tenant against a
// weight-1 tenant: the light tenant must still be admitted roughly its
// 1/101 share — never zero.
func TestFairSchedulerStarvationFreedom(t *testing.T) {
	s := newFairScheduler(1, 1<<20, []TenantConfig{
		{Name: "heavy", Weight: 100},
		{Name: "light", Weight: 1},
	})
	const trialCount = 1010
	counts := runSchedulerTrial(t, s, []string{"heavy", "light"}, trialCount, trialCount)
	if counts["light"] == 0 {
		t.Fatal("light tenant starved")
	}
	share := float64(counts["light"]) / float64(trialCount)
	if expect := 1.0 / 101.0; share < expect/3 {
		t.Fatalf("light share = %.4f, want >= %.4f", share, expect/3)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFairSchedulerWorkConservation checks that free slots never idle while
// admissible waiters exist: with capacity 3 and 8 requests, exactly 3 run
// and every Release promotes a waiter.
func TestFairSchedulerWorkConservation(t *testing.T) {
	s := newFairScheduler(3, 100, []TenantConfig{
		{Name: "a", Weight: 2},
		{Name: "b", Weight: 1},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	admitted := make(chan string, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			if err := s.Acquire(ctx, tenant); err != nil {
				t.Errorf("Acquire(%s): %v", tenant, err)
				return
			}
			admitted <- tenant
		}(tenant)
	}
	waitFor(t, "3 in flight", func() bool { return s.InFlight() == 3 })
	waitFor(t, "5 waiting", func() bool { return s.Waiting() == 5 })

	// Each release must promote exactly one waiter (work conservation).
	for released := 0; released < 5; released++ {
		tenant := <-admitted
		s.Release(tenant)
		want := 5 - released - 1
		waitFor(t, "waiter promoted", func() bool {
			return s.InFlight() == 3 && s.Waiting() == want
		})
	}
	// Drain the rest.
	for i := 0; i < 3; i++ {
		s.Release(<-admitted)
	}
	wg.Wait()
	if s.InFlight() != 0 || s.Waiting() != 0 {
		t.Fatalf("scheduler not drained: inflight=%d waiting=%d", s.InFlight(), s.Waiting())
	}
}

// TestFairSchedulerTenantCaps checks that a per-tenant in-flight cap holds
// while the freed share flows to other tenants (work conservation under
// caps) — even when the capped tenant has the dominant weight.
func TestFairSchedulerTenantCaps(t *testing.T) {
	s := newFairScheduler(4, 100, []TenantConfig{
		{Name: "capped", Weight: 5, MaxInFlight: 1},
		{Name: "other", Weight: 1},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, tenant := range []string{"capped", "other"} {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				if err := s.Acquire(ctx, tenant); err == nil {
					<-ctx.Done() // hold until the test ends
				}
			}(tenant)
		}
	}
	waitFor(t, "capacity filled around the cap", func() bool {
		snap := s.TenantsSnapshot()
		return snap["capped"].InFlight == 1 && snap["other"].InFlight == 3
	})
	cancel()
	wg.Wait()
}

// TestFairSchedulerQuotaVsOverload distinguishes the two rejection errors at
// the scheduler layer: per-tenant queue quota → ErrTenantQuota, global
// capacity+queue exhaustion → ErrOverloaded.
func TestFairSchedulerQuotaVsOverload(t *testing.T) {
	s := newFairScheduler(1, 2, []TenantConfig{
		{Name: "lim", Weight: 1, MaxQueue: 1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Take the only slot.
	if err := s.Acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	defer s.Release("")

	// One lim request queues...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Acquire(ctx, "lim") // released by cancel below
	}()
	waitFor(t, "lim waiter queued", func() bool { return s.Waiting() == 1 })

	// ...the second trips lim's own quota while global room remains.
	if err := s.Acquire(ctx, "lim"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("lim over quota: err = %v, want ErrTenantQuota", err)
	}

	// Fill the remaining global queue slot from another tenant, then the
	// next request from anyone is a global overload.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Acquire(ctx, "")
	}()
	waitFor(t, "global queue full", func() bool { return s.Waiting() == 2 })
	if err := s.Acquire(ctx, ""); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("global overload: err = %v, want ErrOverloaded", err)
	}

	snap := s.TenantsSnapshot()
	if snap["lim"].Rejected != 1 || snap[DefaultTenant].Rejected != 1 {
		t.Fatalf("rejection counters = %+v", snap)
	}
	cancel()
	wg.Wait()
}

// TestErrToWireAdmissionCodes pins the wire mapping both HTTP surfaces share:
// overloaded, tenant_quota, and degraded_unavailable are distinct stable
// codes, all 429 with a retry hint.
func TestErrToWireAdmissionCodes(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{ErrOverloaded, client.CodeOverloaded},
		{ErrTenantQuota, client.CodeTenantQuota},
		{ErrDegraded, client.CodeDegradedUnavailable},
	}
	for _, c := range cases {
		w := errToWire(c.err)
		if w.Code != c.code {
			t.Errorf("errToWire(%v).Code = %q, want %q", c.err, w.Code, c.code)
		}
		if w.HTTPStatus != http.StatusTooManyRequests {
			t.Errorf("errToWire(%v).HTTPStatus = %d, want 429", c.err, w.HTTPStatus)
		}
		if w.RetryAfterMS <= 0 {
			t.Errorf("errToWire(%v).RetryAfterMS = %d, want > 0", c.err, w.RetryAfterMS)
		}
	}
}

// TestHTTPAdmissionCodes drives the rejection paths over HTTP. Admission
// runs inside the job, so a held engine with no queue fails the polled job
// with code "overloaded", and a tenant over its own queue quota fails it
// with "tenant_quota", both with a retry hint. A submission beyond MaxJobs
// is refused up front: 429 with Retry-After.
func TestHTTPAdmissionCodes(t *testing.T) {
	cat := newCatalog(t, 15)
	submit := func(srv *httptest.Server, tenant string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(client.SubmitRequest{
			Query:   testQuery,
			Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, MaxM: 60},
		})
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/queries", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(client.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	wantFailed := func(job *client.Job, code string) {
		t.Helper()
		if job.State != client.JobFailed || job.Error == nil || job.Error.Code != code {
			t.Fatalf("job state %q, error %+v, want failed with code %q", job.State, job.Error, code)
		}
		if job.Error.RetryAfterMS <= 0 {
			t.Fatalf("%s retry_after_ms = %d, want > 0", code, job.Error.RetryAfterMS)
		}
	}

	// Path 1: global overload (slot held, no queue).
	e := New(cat, &Options{MaxInFlight: 1, MaxQueue: -1, Parallelism: 1})
	srv := v1Server(t, e)
	if err := e.sched.Acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	wantFailed(waitJob(t, srv.URL, decodeJob(t, submit(srv, ""), http.StatusAccepted)), client.CodeOverloaded)
	e.sched.Release("")

	// Path 2: tenant queue quota (global room remains).
	e2 := New(cat, &Options{
		MaxInFlight: 1, MaxQueue: 8, Parallelism: 1,
		Tenants: []TenantConfig{{Name: "lim", Weight: 1, MaxQueue: 1}},
	})
	srv2 := v1Server(t, e2)
	if err := e2.sched.Acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	queued := decodeJob(t, submit(srv2, "lim"), http.StatusAccepted) // waits behind the held slot
	waitFor(t, "lim request queued", func() bool { return e2.sched.Waiting() == 1 })
	wantFailed(waitJob(t, srv2.URL, decodeJob(t, submit(srv2, "lim"), http.StatusAccepted)), client.CodeTenantQuota)
	e2.sched.Release("") // let the queued request run to completion
	if job := waitJob(t, srv2.URL, queued); job.State != client.JobSucceeded {
		t.Fatalf("queued job state %q (error %+v), want succeeded", job.State, job.Error)
	}

	st := e2.Stats()
	lim := st.Tenants["lim"]
	if lim.Rejected != 1 || lim.Admitted != 1 {
		t.Fatalf("lim stats = %+v, want 1 rejected, 1 admitted", lim)
	}

	// Path 3: submit-time overload (MaxJobs active jobs already).
	e3 := New(cat, &Options{MaxJobs: 1, MaxInFlight: 1, Parallelism: 1})
	srv3 := v1Server(t, e3)
	if err := e3.sched.Acquire(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	active := decodeJob(t, submit(srv3, ""), http.StatusAccepted)
	resp := submit(srv3, "")
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if apiErr := decodeEnvelope(t, resp, http.StatusTooManyRequests, client.CodeOverloaded); apiErr.RetryAfterMS <= 0 {
		t.Fatalf("429 envelope retry_after_ms = %d, want > 0", apiErr.RetryAfterMS)
	}
	e3.CancelJob(active.ID)
	e3.sched.Release("")
}
