package serve

// Robustness tests: panic isolation (a panicking experiment fails its
// own job while the server keeps serving), per-job wall-clock timeouts,
// and the Retry-After contract on queue-full 503 rejections.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbench/internal/experiments"
)

var registerPanicOnce sync.Once

// registerPanicExperiment adds an experiment whose Run panics — the
// crash-bug stand-in the isolation test drives through the full HTTP
// path.
func registerPanicExperiment() {
	registerPanicOnce.Do(func() {
		experiments.Register(experiments.Experiment{
			Name: "srvtest-panic", Synopsis: "panics on run", Group: experiments.GroupExtension,
			Run: func(ctx context.Context, l *experiments.Lab, p experiments.Params) (*experiments.Table, error) {
				panic("deliberate test panic")
			},
		})
	})
}

// TestPanicIsolation pins the acceptance criterion: a panicking job
// fails alone — stack in its event log, counted in Stats.Panics and
// /healthz — while the worker pool keeps executing other jobs.
func TestPanicIsolation(t *testing.T) {
	registerPanicExperiment()
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submit(t, ts.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-panic"}})
	evs, state := waitTerminal(t, ts.URL, st.ID, 30*time.Second)
	if state != StateFailed {
		t.Fatalf("panicking job settled %s, want failed", state)
	}
	var panicEv *Event
	for i := range evs {
		if evs[i].Type == "panic" {
			panicEv = &evs[i]
		}
	}
	if panicEv == nil {
		t.Fatalf("no panic event in log: %+v", evs)
	}
	if !strings.Contains(panicEv.Msg, "deliberate test panic") {
		t.Errorf("panic event msg %q", panicEv.Msg)
	}
	if stack, _ := panicEv.Data["stack"].(string); !strings.Contains(stack, "goroutine") {
		t.Errorf("panic event carries no stack: %v", panicEv.Data)
	}
	var got JobStatus
	getJSON(t, ts.URL+"/jobs/"+st.ID, &got)
	if got.State != StateFailed || !strings.Contains(got.Error, "panicked") {
		t.Errorf("job status %+v", got)
	}

	// The server survived: the panic is counted, and the very same
	// worker pool still executes jobs to completion.
	var health Health
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", code)
	}
	if health.Jobs.Panics != 1 || health.Jobs.Failed != 1 {
		t.Errorf("stats after panic: %+v", health.Jobs)
	}
	next := submit(t, ts.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-many"}})
	if _, state := waitTerminal(t, ts.URL, next.ID, 120*time.Second); state != StateDone {
		t.Fatalf("job after panic settled %s, want done", state)
	}
}

// TestJobTimeout pins the wall-clock bound: a job exceeding JobTimeout
// fails (it is the server refusing work, not a client cancel), with the
// timeout named in the error and counted in Stats.TimedOut.
func TestJobTimeout(t *testing.T) {
	registerTestExperiments()
	labCfg := experiments.QuickConfig()
	labCfg.TraceLen = 2000
	s := New(Config{Lab: labCfg, Workers: 1, QueueDepth: 4, JobTimeout: 50 * time.Millisecond})
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submit(t, ts.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-slow"}})
	_, state := waitTerminal(t, ts.URL, st.ID, 30*time.Second)
	if state != StateFailed {
		t.Fatalf("timed-out job settled %s, want failed", state)
	}
	var got JobStatus
	getJSON(t, ts.URL+"/jobs/"+st.ID, &got)
	if !strings.Contains(got.Error, "exceeded timeout") {
		t.Errorf("timeout job error %q", got.Error)
	}
	var health Health
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Jobs.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1", health.Jobs.TimedOut)
	}
	if health.JobTimeout != "50ms" {
		t.Errorf("healthz job_timeout %q", health.JobTimeout)
	}
}

// TestQueueFullRetryAfter pins the 503 contract: a submission rejected
// by a full queue gets a Retry-After hint and nothing was enqueued, so
// retrying it is safe.
func TestQueueFullRetryAfter(t *testing.T) {
	registerTestExperiments()
	labCfg := experiments.QuickConfig()
	labCfg.TraceLen = 2000
	s := New(Config{Lab: labCfg, Workers: 1, QueueDepth: 1})
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct cores values give distinct canonical keys, so nothing
	// coalesces: one running job, one queued job, then a full queue.
	slow := func(cores int) SubmitRequest {
		return SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-slow", Cores: cores}}
	}
	first := submit(t, ts.URL, slow(1))
	waitRunning(t, s, first.ID)
	submit(t, ts.URL, slow(2)) // fills the queue

	resp, body := postJSON(t, ts.URL+"/jobs", slow(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("503 Retry-After = %q, want \"1\"", got)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("503 body %s", body)
	}
}

// waitRunning waits until the job leaves the queue, so a queue-capacity
// test knows its worker slot is taken.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.mgr.get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := j.status(); st.State == StateRunning {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}
