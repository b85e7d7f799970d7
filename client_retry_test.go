package mcbench_test

// Unit tests of the client's resilience layer over httptest doubles:
// retry-until-success on transient failures, Retry-After honoured,
// typed APIError through errors.As, the IsNotFound helper, and the
// Events follower resuming from its cursor across dropped polls.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcbench"
)

// flakyHandler answers failures until `fails` requests have been seen,
// then delegates.
type flakyHandler struct {
	calls  atomic.Int64
	fails  int64
	status int // 0 = close the connection instead of answering
	next   http.Handler
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.calls.Add(1) <= h.fails {
		if h.status == 0 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close() // the client sees a dropped connection
			return
		}
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(h.status)
		fmt.Fprintf(w, `{"error":"transient"}`)
		return
	}
	h.next.ServeHTTP(w, r)
}

// healthOK answers a minimal healthz payload.
var healthOK = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"ok":true,"workers":2}`)
})

// fastClient returns a client with sub-millisecond backoff so retry
// tests run instantly.
func fastClient(t *testing.T, url string, opts ...mcbench.ClientOptions) *mcbench.Client {
	t.Helper()
	o := mcbench.ClientOptions{BaseDelay: 100 * time.Microsecond}
	if len(opts) > 0 {
		o = opts[0]
		if o.BaseDelay == 0 {
			o.BaseDelay = 100 * time.Microsecond
		}
	}
	c, err := mcbench.NewClient(url, o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClientRetriesConnectionErrors pins the core retry loop: dropped
// connections retry with backoff until the server answers.
func TestClientRetriesConnectionErrors(t *testing.T) {
	h := &flakyHandler{fails: 3, next: healthOK}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(t, ts.URL)
	hl, err := c.Health(t.Context())
	if err != nil {
		t.Fatalf("Health through 3 dropped connections: %v", err)
	}
	if !hl.OK || h.calls.Load() != 4 {
		t.Errorf("ok=%v calls=%d, want true, 4", hl.OK, h.calls.Load())
	}
}

// TestClientRetries503 pins the submit path: 503 means
// rejected-before-enqueue, so even POSTs retry (honouring Retry-After).
func TestClientRetries503(t *testing.T) {
	h := &flakyHandler{
		fails:  2,
		status: http.StatusServiceUnavailable,
		next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(mcbench.JobStatus{ID: "j000001", State: mcbench.JobQueued})
		}),
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(t, ts.URL)
	st, err := c.SubmitExperiment(t.Context(), "fig6", 0)
	if err != nil {
		t.Fatalf("submit through 2 503s: %v", err)
	}
	if st.ID != "j000001" || h.calls.Load() != 3 {
		t.Errorf("id=%s calls=%d", st.ID, h.calls.Load())
	}
}

// TestClientDoesNotRetryPOSTOn502 pins the idempotency line: gateway
// errors (which may mean the request reached the server) retry GETs
// only, never POSTs.
func TestClientDoesNotRetryPOSTOn502(t *testing.T) {
	h := &flakyHandler{fails: 1 << 30, status: http.StatusBadGateway, next: healthOK}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(t, ts.URL)
	_, err := c.SubmitExperiment(t.Context(), "fig6", 0)
	if err == nil {
		t.Fatal("502 POST succeeded?")
	}
	if h.calls.Load() != 1 {
		t.Errorf("POST retried %d times on 502", h.calls.Load()-1)
	}
	// The same failure on a GET does retry.
	h.calls.Store(0)
	h.fails = 2
	if _, err := c.Health(t.Context()); err != nil {
		t.Fatalf("Health through 2 502s: %v", err)
	}
	if h.calls.Load() != 3 {
		t.Errorf("GET calls=%d, want 3", h.calls.Load())
	}
}

// TestClientRetriesAreBounded pins that retries stop at MaxRetries and
// the last error surfaces, typed.
func TestClientRetriesAreBounded(t *testing.T) {
	h := &flakyHandler{fails: 1 << 30, status: http.StatusServiceUnavailable, next: healthOK}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(t, ts.URL, mcbench.ClientOptions{MaxRetries: 2, BaseDelay: 100 * time.Microsecond})
	_, err := c.Health(t.Context())
	if err == nil {
		t.Fatal("bounded retries succeeded against an always-503 server")
	}
	if h.calls.Load() != 3 { // 1 attempt + 2 retries
		t.Errorf("calls=%d, want 3", h.calls.Load())
	}
	var ae *mcbench.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("final error not a typed 503: %v", err)
	}
}

// TestClientRetriesDisabled pins MaxRetries < 0: one attempt, no more.
func TestClientRetriesDisabled(t *testing.T) {
	h := &flakyHandler{fails: 1 << 30, next: healthOK}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(t, ts.URL, mcbench.ClientOptions{MaxRetries: -1})
	if _, err := c.Health(t.Context()); err == nil {
		t.Fatal("disabled retries succeeded")
	}
	if h.calls.Load() != 1 {
		t.Errorf("calls=%d, want 1", h.calls.Load())
	}
}

// TestAPIErrorTyped pins the exported error contract: non-2xx responses
// surface as *APIError with the status inspectable, and IsNotFound
// recognises 404s.
func TestAPIErrorTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, `{"error":"serve: no job \"j9\""}`)
	}))
	defer ts.Close()
	c := fastClient(t, ts.URL)
	_, err := c.Job(t.Context(), "j9")
	if err == nil {
		t.Fatal("404 did not error")
	}
	var ae *mcbench.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error not an *APIError: %T %v", err, err)
	}
	if ae.StatusCode != http.StatusNotFound || ae.Message != `serve: no job "j9"` {
		t.Errorf("APIError %+v", ae)
	}
	if !mcbench.IsNotFound(err) {
		t.Error("IsNotFound missed a 404")
	}
	if mcbench.IsNotFound(errors.New("other")) {
		t.Error("IsNotFound matched a non-API error")
	}
}

// TestEventsFollowerReconnects pins the follower: polls that die
// mid-follow are retried from the last-seen cursor, so the caller sees
// every event exactly once.
func TestEventsFollowerReconnects(t *testing.T) {
	evs := []mcbench.JobEvent{
		{Seq: 1, Type: "queued"}, {Seq: 2, Type: "started"}, {Seq: 3, Type: "done"},
	}
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		// Drop every other poll: 1st (cursor 0) ok, 2nd dropped, ...
		if n%2 == 0 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
			return
		}
		after := 0
		fmt.Sscanf(r.URL.Query().Get("after"), "%d", &after)
		page := struct {
			State  mcbench.JobState   `json:"state"`
			Events []mcbench.JobEvent `json:"events"`
		}{State: mcbench.JobRunning}
		// One event per successful poll, so the follow spans several
		// polls and therefore several dropped connections.
		if after < len(evs) {
			page.Events = evs[after : after+1]
		}
		if after+1 >= len(evs) {
			page.State = mcbench.JobDone
		}
		json.NewEncoder(w).Encode(page)
	}))
	defer ts.Close()
	c := fastClient(t, ts.URL)
	var seen []int
	state, err := c.Events(t.Context(), "j1", 0, func(ev mcbench.JobEvent) bool {
		seen = append(seen, ev.Seq)
		return true
	})
	if err != nil {
		t.Fatalf("Events through dropped polls: %v", err)
	}
	if state != mcbench.JobDone {
		t.Errorf("final state %s", state)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Errorf("events seen %v, want [1 2 3] exactly once each", seen)
	}
}

// TestClientStatsVisibility pins Client.Stats: a 503+Retry-After storm
// is visible as attempts, retries and honoured backpressure, a
// non-retryable failure counts once, and the latency quantiles are fed
// by every attempt.
func TestClientStatsVisibility(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/jobs/nope" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"no such job"}`)
			return
		}
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"busy"}`)
			return
		}
		healthOK.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := fastClient(t, ts.URL)

	if st := c.Stats(); st.Requests != 0 || st.Retries != 0 || st.Failures != 0 {
		t.Fatalf("fresh client stats %+v, want zeros", st)
	}
	if _, err := c.Health(t.Context()); err != nil {
		t.Fatalf("Health through 2 503s: %v", err)
	}
	st := c.Stats()
	if st.Requests != 3 || st.Retries != 2 || st.RetryAfterHonored != 2 || st.Failures != 0 {
		t.Errorf("after 503 storm: %+v, want 3 requests / 2 retries / 2 honoured / 0 failures", st)
	}
	if st.LatencyP50 <= 0 || st.LatencyP95 < st.LatencyP50 {
		t.Errorf("latency quantiles p50=%g p95=%g, want positive and ordered", st.LatencyP50, st.LatencyP95)
	}

	// A 404 is non-retryable: one more attempt, one failure, no retry.
	if _, err := c.Job(t.Context(), "nope"); !mcbench.IsNotFound(err) {
		t.Fatalf("Job(nope) = %v, want 404", err)
	}
	st = c.Stats()
	if st.Requests != 4 || st.Retries != 2 || st.Failures != 1 {
		t.Errorf("after 404: %+v, want 4 requests / 2 retries / 1 failure", st)
	}
}

// TestClientCapsResponseBodies pins the response-body cap: a peer that
// streams a body without end fails the call once, without a retry and
// with an error naming the cap, while a body of exactly the cap still
// decodes.
func TestClientCapsResponseBodies(t *testing.T) {
	const limit = 1 << 20
	var endless atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/healthz" { // exactly the cap: payload padded with spaces
			payload := `{"ok":true,"workers":2}`
			fmt.Fprint(w, payload+strings.Repeat(" ", limit-len(payload)))
			return
		}
		// Stream until the client hangs up. The 64× ceiling only keeps a
		// client that lost its cap from eating the test host's memory:
		// it then fails on the decode instead of on the cap.
		endless.Add(1)
		chunk := []byte(strings.Repeat(" ", 32<<10))
		for sent := 0; sent < 64*limit; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	c := fastClient(t, ts.URL)
	mcbench.SetResponseCap(c, limit)

	hl, err := c.Health(t.Context())
	if err != nil || !hl.OK {
		t.Fatalf("Health with a body of exactly the cap: %+v, %v", hl, err)
	}
	_, err = c.Cache(t.Context())
	if err == nil || !strings.Contains(err.Error(), "1048576-byte cap") {
		t.Fatalf("Cache over an endless body = %v, want an error naming the 1048576-byte cap", err)
	}
	if n, st := endless.Load(), c.Stats(); n != 1 || st.Retries != 0 || st.Failures != 1 {
		t.Errorf("endless body: %d requests, stats %+v; want 1 request, 0 retries, 1 failure", n, st)
	}
}

// TestClientCapsPeerReads pins the per-endpoint caps on what a fleet
// peer can make the client buffer: an oversized GET /cache/{key} body
// fails CacheGet at 16 MiB and an oversized /metrics scrape fails
// Metrics at 4 MiB, each with one request and an error naming its cap,
// while the client's general cap stays 256 MiB. A table of normal size
// still comes back whole.
func TestClientCapsPeerReads(t *testing.T) {
	const cacheCap, metricsCap = 16 << 20, 4 << 20
	var requests atomic.Int64
	table := `{"simulator":"ref"}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if r.URL.Path == "/cache/small" {
			fmt.Fprint(w, table)
			return
		}
		// Twice the largest cap: enough to trip it, and a ceiling on what
		// a client that lost its cap would buffer.
		chunk := []byte(strings.Repeat(" ", 32<<10))
		for sent := 0; sent < 2*cacheCap; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	c := fastClient(t, ts.URL)

	data, ok, err := c.CacheGet(t.Context(), "small")
	if err != nil || !ok || string(data) != table {
		t.Fatalf("CacheGet of a small table = %q, %v, %v", data, ok, err)
	}
	for _, call := range []struct {
		name string
		cap  int
		run  func() error
	}{
		{"CacheGet", cacheCap, func() error {
			_, _, err := c.CacheGet(t.Context(), "ref-c2-LRU-l20000-p22-s1")
			return err
		}},
		{"Metrics", metricsCap, func() error {
			_, err := c.Metrics(t.Context())
			return err
		}},
	} {
		before := requests.Load()
		err := call.run()
		if want := fmt.Sprintf("%d-byte cap", call.cap); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s over an oversized body = %v, want an error naming the %s", call.name, err, want)
		}
		if n := requests.Load() - before; n != 1 {
			t.Errorf("%s: %d requests, want 1 (a cap error is not retried)", call.name, n)
		}
	}
}
