package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"spq/client"
)

func v1Server(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response, wantStatus int) *client.Job {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var job client.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return &job
}

func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) *client.Error {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var env client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Error == nil || env.Error.Code != wantCode {
		t.Fatalf("error = %+v, want code %q", env.Error, wantCode)
	}
	return env.Error
}

// TestV1SubmitPollResult drives the happy path over the wire: typed
// submission, long-poll to completion, progress events, result payload.
func TestV1SubmitPollResult(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	srv := v1Server(t, e)

	job := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query:   testQuery,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, IncrementM: 10, MaxM: 60},
	}), http.StatusAccepted)
	if job.ID == "" || job.State.Terminal() && job.State != client.JobSucceeded {
		t.Fatalf("bad submit response: %+v", job)
	}

	deadline := time.Now().Add(60 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/queries/%s?wait_ms=1000", srv.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		job = decodeJob(t, resp, http.StatusOK)
	}
	if job.State != client.JobSucceeded {
		t.Fatalf("state = %q (err %+v), want succeeded", job.State, job.Error)
	}
	if job.Result == nil || !job.Result.Feasible || len(job.Result.Package) == 0 {
		t.Fatalf("bad result: %+v", job.Result)
	}
	// since=0 poll returns the full event history even after completion.
	resp, err := http.Get(srv.URL + "/v1/queries/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	job = decodeJob(t, resp, http.StatusOK)
	if len(job.Events) == 0 || job.Events[0].Iteration < 1 {
		t.Fatalf("no usable progress events: %+v", job.Events)
	}
	if len(job.BestPackage) == 0 || job.BestObjective != job.Result.Objective {
		t.Fatalf("best-so-far not exposed: best=%v obj=%v", job.BestPackage, job.BestObjective)
	}

	// The listing shows the job without event bodies.
	resp, err = http.Get(srv.URL + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list client.ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID || len(list.Jobs[0].Events) != 0 {
		t.Fatalf("bad listing: %+v", list.Jobs)
	}
}

// TestV1IgnoresRetiredResidencyKey pins wire compatibility for the retired
// max_resident_scenarios option: a body that still carries it is accepted,
// the key is ignored, and the answer is bit-identical to the same body
// without it.
func TestV1IgnoresRetiredResidencyKey(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	srv := v1Server(t, e)
	query, err := json.Marshal(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(extra string) *client.QueryResult {
		t.Helper()
		body := `{"query": ` + string(query) + `, "options": {"seed": 1, "validation_m": 1500,
			"initial_m": 10, "increment_m": 10, "max_m": 60` + extra + `}}`
		resp, err := http.Post(srv.URL+"/v1/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		job := decodeJob(t, resp, http.StatusAccepted)
		deadline := time.Now().Add(60 * time.Second)
		for !job.State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			resp, err := http.Get(fmt.Sprintf("%s/v1/queries/%s?wait_ms=1000", srv.URL, job.ID))
			if err != nil {
				t.Fatal(err)
			}
			job = decodeJob(t, resp, http.StatusOK)
		}
		if job.State != client.JobSucceeded || job.Result == nil {
			t.Fatalf("state = %q (err %+v), want succeeded", job.State, job.Error)
		}
		return job.Result
	}
	want := solve("")
	got := solve(`, "max_resident_scenarios": -1`)
	if got.ResultCacheHit {
		t.Fatal("second submission was served from the result cache; it must solve")
	}
	if got.Feasible != want.Feasible || got.Objective != want.Objective || got.M != want.M || got.Z != want.Z {
		t.Fatalf("answer differs: got (feasible %v, objective %v, M %d, Z %d), want (%v, %v, %d, %d)",
			got.Feasible, got.Objective, got.M, got.Z, want.Feasible, want.Objective, want.M, want.Z)
	}
	if len(want.Package) == 0 || !reflect.DeepEqual(got.Package, want.Package) {
		t.Fatalf("package = %v, want %v", got.Package, want.Package)
	}
	if len(want.Surpluses) == 0 || !reflect.DeepEqual(got.Surpluses, want.Surpluses) {
		t.Fatalf("surpluses = %v, want %v", got.Surpluses, want.Surpluses)
	}
}

// TestV1CancelEndpoint cancels a running job over the wire.
func TestV1CancelEndpoint(t *testing.T) {
	e := New(newCatalog(t, 40), &Options{Parallelism: 1})
	srv := v1Server(t, e)

	job := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query: hardRequest().Query,
		Options: &client.SolveOptions{
			Seed: 1, ValidationM: 500000, InitialM: 50, IncrementM: 50, MaxM: 1000,
		},
	}), http.StatusAccepted)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/queries/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeJob(t, resp, http.StatusOK)
	deadline := time.Now().Add(30 * time.Second)
	for !got.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never terminal")
		}
		r2, err := http.Get(srv.URL + "/v1/queries/" + job.ID + "?wait_ms=500")
		if err != nil {
			t.Fatal(err)
		}
		got = decodeJob(t, r2, http.StatusOK)
	}
	if got.State != client.JobCancelled {
		t.Fatalf("state = %q, want cancelled", got.State)
	}
	if got.Error == nil || got.Error.Code != client.CodeCancelled {
		t.Fatalf("error = %+v, want code cancelled", got.Error)
	}
}

// TestV1Batch submits a mixed batch: items succeed or fail independently.
func TestV1Batch(t *testing.T) {
	e := New(newCatalog(t, 15), nil)
	srv := v1Server(t, e)

	resp := postJSON(t, srv.URL+"/v1/queries:batch", client.BatchRequest{
		Queries: []client.SubmitRequest{
			{Query: testQuery, Options: &client.SolveOptions{Seed: 1, ValidationM: 1500, InitialM: 10, MaxM: 60}},
			{Query: "SELECT NONSENSE"},
			{Query: testQuery, Method: "quantum"},
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	var out client.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("items = %d, want 3", len(out.Jobs))
	}
	if out.Jobs[0].Job == nil || out.Jobs[0].Error != nil {
		t.Fatalf("item 0 = %+v, want job", out.Jobs[0])
	}
	if out.Jobs[1].Error == nil || out.Jobs[1].Error.Code != client.CodeInvalidQuery {
		t.Fatalf("item 1 = %+v, want invalid_query", out.Jobs[1])
	}
	if out.Jobs[2].Error == nil || out.Jobs[2].Error.Code != client.CodeUnknownMethod {
		t.Fatalf("item 2 = %+v, want unknown_method", out.Jobs[2])
	}
}

// TestV1ErrorEnvelope checks that every HTTP failure path answers with the
// structured envelope and its stable code (no ad-hoc text bodies), and
// that 429 carries Retry-After.
func TestV1ErrorEnvelope(t *testing.T) {
	e := New(newCatalog(t, 40), &Options{MaxJobs: 1, MaxInFlight: 1, Parallelism: 1})
	srv := v1Server(t, e)

	// Malformed JSON body.
	resp, err := http.Post(srv.URL+"/v1/queries", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusBadRequest, client.CodeBadRequest)

	// Missing query.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{}),
		http.StatusBadRequest, client.CodeBadRequest)

	// Unparsable query.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: "SELECT NONSENSE"}),
		http.StatusBadRequest, client.CodeInvalidQuery)

	// Unknown method.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: testQuery, Method: "quantum"}),
		http.StatusBadRequest, client.CodeUnknownMethod)

	// Unknown sketch strategy.
	decodeEnvelope(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query: testQuery, Method: "sketch", Sketch: &client.SketchOptions{Strategy: "voronoi"},
	}), http.StatusBadRequest, client.CodeBadRequest)

	// Unknown route.
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, client.CodeNotFound)

	// Unknown job id.
	resp, err = http.Get(srv.URL + "/v1/queries/zzz")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, client.CodeNotFound)

	// Disallowed HTTP method on a known route.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/query", strings.NewReader("{}"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Allow") == "" {
		t.Fatal("405 response missing Allow header")
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, client.CodeMethodNotAllowed)

	// Overload: one active job allowed; the second submission gets 429
	// with Retry-After.
	job := decodeJob(t, postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{
		Query:   hardRequest().Query,
		Options: &client.SolveOptions{Seed: 1, ValidationM: 500000, InitialM: 50, MaxM: 1000},
	}), http.StatusAccepted)
	resp = postJSON(t, srv.URL+"/v1/queries", client.SubmitRequest{Query: testQuery})
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	apiErr := decodeEnvelope(t, resp, http.StatusTooManyRequests, client.CodeOverloaded)
	if apiErr.RetryAfterMS <= 0 {
		t.Fatalf("429 envelope retry_after_ms = %d, want > 0", apiErr.RetryAfterMS)
	}

	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/queries/"+job.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// TestLegacyShim: the flat pre-v1 request body keeps working through the
// job-manager shim, and the response carries the legacy field set with the
// same values the synchronous engine path computes.
func TestLegacyShim(t *testing.T) {
	e := New(newCatalog(t, 15), &Options{ResultCacheSize: -1})
	srv := v1Server(t, e)

	body := `{"query": ` + fmt.Sprintf("%q", testQuery) + `,
		"seed": 1, "validation_m": 1500, "initial_m": 10, "increment_m": 10, "max_m": 60}`
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	// The legacy field set must survive the shim unchanged.
	for _, key := range []string{"feasible", "objective", "m", "package_size", "package", "cache_hit", "wait_ms", "total_ms"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("legacy response lost field %q (got %v)", key, raw)
		}
	}

	sres, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if got := raw["objective"].(float64); got != sres.Objective {
		t.Fatalf("shim objective %v != sync objective %v", got, sres.Objective)
	}
	if got := int(raw["m"].(float64)); got != sres.M {
		t.Fatalf("shim m %v != sync m %v", got, sres.M)
	}
	if got := len(raw["package"].([]any)); got != len(sres.Multiplicities()) {
		t.Fatalf("shim package size %d != sync %d", got, len(sres.Multiplicities()))
	}

	// Legacy error paths use the envelope now.
	resp2, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"query": "SELECT NONSENSE"}`))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp2, http.StatusBadRequest, client.CodeInvalidQuery)

	// Stats report the shim's traffic through the job counters.
	st := e.Stats()
	if st.JobsSubmitted < 1 || st.JobsCompleted < 1 {
		t.Fatalf("job counters missed the shim: %+v", st)
	}
}
