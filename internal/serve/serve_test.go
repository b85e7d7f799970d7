package serve

// End-to-end tests over httptest and a real listener: submit → stream →
// result, concurrent-duplicate dedup (exactly one sweep), mid-job
// cancellation through the API, and graceful drain that persists
// completed sweeps for a restarted server to serve from disk.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/experiments"
	"mcbench/internal/multicore"
)

// testPolicies are the five sweep products srvtest-many warms.
var testPolicies = []cache.PolicyName{cache.LRU, cache.FIFO, cache.Random, cache.DIP, cache.DRRIP}

// gate blocks srvtest-gate's Run until released, so dedup tests control
// exactly when the coalesced job finishes.
var gate = make(chan struct{})

var registerOnce sync.Once

// registerTestExperiments adds tiny registry experiments the serve tests
// drive: one sweep product (gated), a five-product campaign, and a job
// that blocks until cancelled.
func registerTestExperiments() {
	registerOnce.Do(func() {
		experiments.Register(experiments.Experiment{
			Name: "srvtest-gate", Synopsis: "one 2-core LRU sweep, gated finish", Group: experiments.GroupExtension,
			Requests: func(l *experiments.Lab, p experiments.Params) []experiments.Request {
				return []experiments.Request{{Sim: experiments.SimBadco, Cores: 2, Policy: cache.LRU}}
			},
			Run: func(ctx context.Context, l *experiments.Lab, p experiments.Params) (*experiments.Table, error) {
				tab, err := l.BadcoIPC(ctx, 2, cache.LRU)
				if err != nil {
					return nil, err
				}
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				t := &experiments.Table{Title: "srvtest-gate", Columns: []string{"rows"}}
				t.AddRow(fmt.Sprint(len(tab)))
				return t, nil
			},
		})
		experiments.Register(experiments.Experiment{
			Name: "srvtest-many", Synopsis: "five 2-core sweep products", Group: experiments.GroupExtension,
			Requests: func(l *experiments.Lab, p experiments.Params) []experiments.Request {
				var reqs []experiments.Request
				for _, pol := range testPolicies {
					reqs = append(reqs, experiments.Request{Sim: experiments.SimBadco, Cores: 2, Policy: pol})
				}
				return reqs
			},
			Run: func(ctx context.Context, l *experiments.Lab, p experiments.Params) (*experiments.Table, error) {
				t := &experiments.Table{Title: "srvtest-many", Columns: []string{"policy", "rows"}}
				for _, pol := range testPolicies {
					tab, err := l.BadcoIPC(ctx, 2, pol)
					if err != nil {
						return nil, err
					}
					t.AddRow(string(pol), fmt.Sprint(len(tab)))
				}
				return t, nil
			},
		})
		experiments.Register(experiments.Experiment{
			Name: "srvtest-slow", Synopsis: "blocks until cancelled", Group: experiments.GroupExtension,
			Run: func(ctx context.Context, l *experiments.Lab, p experiments.Params) (*experiments.Table, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			},
		})
	})
}

// newTestServer builds a server over a tiny lab (sub-second sweeps).
func newTestServer(t *testing.T, cacheDir string) *Server {
	t.Helper()
	registerTestExperiments()
	labCfg := experiments.QuickConfig()
	labCfg.TraceLen = 2000
	labCfg.CacheDir = cacheDir
	s := New(Config{Lab: labCfg, Workers: 2, QueueDepth: 8})
	t.Cleanup(s.Drain)
	return s
}

// --- small HTTP helpers -------------------------------------------------

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

func submit(t *testing.T, base string, req SubmitRequest) JobStatus {
	t.Helper()
	resp, body := postJSON(t, base+"/jobs", req)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit decode: %v\n%s", err, body)
	}
	return st
}

// waitTerminal polls the long-poll events endpoint until the job
// settles, returning every event seen and the final state.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) ([]Event, State) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var all []Event
	after := 0
	for time.Now().Before(deadline) {
		var page struct {
			State  State   `json:"state"`
			Events []Event `json:"events"`
		}
		code := getJSON(t, fmt.Sprintf("%s/jobs/%s/events?after=%d&wait=2s", base, id, after), &page)
		if code != http.StatusOK {
			t.Fatalf("events: status %d", code)
		}
		all = append(all, page.Events...)
		if len(page.Events) > 0 {
			after = page.Events[len(page.Events)-1].Seq
		}
		if page.State.Terminal() {
			return all, page.State
		}
	}
	t.Fatalf("job %s did not settle within %v (events so far: %+v)", id, timeout, all)
	return nil, ""
}

// --- tests --------------------------------------------------------------

// TestEndToEndSubmitStreamResult drives the full client path over
// httptest: health, catalogue, submission, event streaming, result.
func TestEndToEndSubmitStreamResult(t *testing.T) {
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var health Health
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if !health.OK || health.Build.GoVersion == "" || health.Source != "suite" {
		t.Errorf("healthz payload %+v", health)
	}
	var cat struct {
		Experiments []experiments.Info `json:"experiments"`
	}
	getJSON(t, ts.URL+"/experiments", &cat)
	if len(cat.Experiments) < 20 {
		t.Errorf("catalogue has %d experiments", len(cat.Experiments))
	}
	var benches struct {
		Source     string       `json:"source"`
		Benchmarks []bench.Info `json:"benchmarks"`
	}
	getJSON(t, ts.URL+"/benches", &benches)
	if benches.Source != "suite" || len(benches.Benchmarks) != 22 {
		t.Errorf("benches: %s / %d", benches.Source, len(benches.Benchmarks))
	}

	// config is simulation-free: instant, deterministic.
	st := submit(t, ts.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "config"}})
	if st.State != StateQueued && st.State != StateRunning && !st.State.Terminal() {
		t.Fatalf("fresh job state %q", st.State)
	}
	events, final := waitTerminal(t, ts.URL, st.ID, 30*time.Second)
	if final != StateDone {
		t.Fatalf("final state %q, events %+v", final, events)
	}
	types := map[string]bool{}
	for _, ev := range events {
		types[ev.Type] = true
	}
	for _, want := range []string{"queued", "started", "done"} {
		if !types[want] {
			t.Errorf("event log missing %q: %+v", want, events)
		}
	}
	var result JobResult
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &result); code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if result.Table == nil || len(result.Table.Rows) == 0 || !strings.Contains(result.Text, "==") {
		t.Fatalf("empty experiment result: %+v", result)
	}
}

// TestAdhocSimulateJob submits an ad-hoc BADCO workload and reads back
// per-thread IPCs.
func TestAdhocSimulateJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submit(t, ts.URL, SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
		Workload: []string{"mcf"}, RunSpec: RunSpec{Cores: 2, Engine: multicore.BADCO.String()},
	}})
	_, final := waitTerminal(t, ts.URL, st.ID, 60*time.Second)
	if final != StateDone {
		t.Fatalf("final state %q", final)
	}
	var result JobResult
	getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &result)
	if len(result.Results) != 1 || len(result.Results[0].IPC) != 2 {
		t.Fatalf("simulate result %+v", result)
	}
	for _, v := range result.Results[0].IPC {
		if v <= 0 || v > 4 {
			t.Errorf("implausible IPC %g", v)
		}
	}
	if result.Results[0].Workload[0] != "mcf" || result.Results[0].Workload[1] != "mcf" {
		t.Errorf("cores replication lost: %v", result.Results[0].Workload)
	}

	// A detailed ad-hoc job releases its traces when it finishes: the
	// server's resident trace memory tracks in-flight work, not the
	// history of benchmarks clients ever touched.
	st2 := submit(t, ts.URL, SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
		Workload: []string{"gcc", "milc"}, RunSpec: RunSpec{Engine: multicore.Detailed.String()},
	}})
	if _, final := waitTerminal(t, ts.URL, st2.ID, 60*time.Second); final != StateDone {
		t.Fatalf("detailed sim state %q", final)
	}
	if got := bench.Resident(s.Lab().Source()); got != 0 {
		t.Errorf("%d traces resident after ad-hoc detailed job, want 0", got)
	}
}

// TestAdhocBadcoReusesModels runs two BADCO simulate jobs over the same
// benchmark under different keys: the first builds mcf's model, the
// second takes it from the lab's memo and builds nothing.
func TestAdhocBadcoReusesModels(t *testing.T) {
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, c := range []struct {
		policy string
		built  float64
	}{{"LRU", 1}, {"DRRIP", 0}} {
		st := submit(t, ts.URL, SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
			Workload: []string{"mcf"}, RunSpec: RunSpec{Cores: 2, Engine: multicore.BADCO.String(), Policy: c.policy},
		}})
		events, final := waitTerminal(t, ts.URL, st.ID, 60*time.Second)
		if final != StateDone {
			t.Fatalf("job %d: final state %q", i, final)
		}
		var models []Event
		for _, ev := range events {
			if ev.Type == "models" {
				models = append(models, ev)
			}
		}
		if len(models) != 1 {
			t.Fatalf("job %d: %d models events, want 1", i, len(models))
		}
		if got := models[0].Data["built"]; got != c.built || models[0].Data["models"] != 1.0 {
			t.Errorf("job %d: models event %q %v, want 1 model, %v built", i, models[0].Msg, models[0].Data, c.built)
		}
	}
}

// TestDedupConcurrentSubmissions is the acceptance test of the dedup
// tentpole: M concurrent identical submissions coalesce onto one job and
// execute exactly one underlying sweep.
func TestDedupConcurrentSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const m = 8
	req := SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-gate"}}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ids      = map[string]int{}
		deduped  int
		statuses []int
	)
	start := make(chan struct{})
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			data, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Errorf("decode: %v\n%s", err, body)
				return
			}
			mu.Lock()
			ids[st.ID]++
			if st.Deduped {
				deduped++
			}
			statuses = append(statuses, resp.StatusCode)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(ids) != 1 {
		t.Fatalf("%d concurrent identical submissions produced %d jobs: %v", m, len(ids), ids)
	}
	if deduped != m-1 {
		t.Errorf("%d submissions marked deduped, want %d", deduped, m-1)
	}
	var id string
	for k := range ids {
		id = k
	}
	// The job is gated: all m submissions coalesced while it was
	// in-flight. Release it and let it finish.
	close(gate)
	defer func() { gate = make(chan struct{}) }()
	events, final := waitTerminal(t, ts.URL, id, 60*time.Second)
	if final != StateDone {
		t.Fatalf("final state %q", final)
	}
	// Exactly one underlying sweep ran for the m submissions.
	if badco, detailed := s.Lab().SweepCounts(); badco != 1 || detailed != 0 {
		t.Fatalf("sweeps = (%d, %d), want exactly (1, 0) for %d coalesced submissions", badco, detailed, m)
	}
	stats := s.mgr.snapshotStats()
	if stats.Executed != 1 || stats.Submitted != m || stats.Coalesced != m-1 {
		t.Errorf("stats %+v, want 1 executed / %d submitted / %d coalesced", stats, m, m-1)
	}
	// The streamed log shows the sweep landing (a product done event
	// with rows).
	sawRows := false
	for _, ev := range events {
		if ev.Type == "product" && ev.Data["phase"] == "done" {
			if rows, ok := ev.Data["rows"].(float64); ok && rows > 0 {
				sawRows = true
			}
		}
	}
	if !sawRows {
		t.Errorf("no product-done event with rows in %+v", events)
	}
	if st := s.mgr.snapshotStats(); st.Done != 1 {
		t.Errorf("done count %d", st.Done)
	}
	// The coalesced count is visible on the job status.
	var jst JobStatus
	getJSON(t, ts.URL+"/jobs/"+id, &jst)
	if jst.Coalesced != m-1 {
		t.Errorf("job coalesced = %d, want %d", jst.Coalesced, m-1)
	}
}

// TestCancelMidJobViaAPI cancels a running job through the HTTP API and
// checks the server keeps serving.
func TestCancelMidJobViaAPI(t *testing.T) {
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submit(t, ts.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-slow"}})
	// Wait until it is actually running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, ts.URL+"/jobs/"+st.ID, &cur)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	_, final := waitTerminal(t, ts.URL, st.ID, 10*time.Second)
	if final != StateCanceled {
		t.Fatalf("state after cancel %q", final)
	}
	// The server is still healthy and runs new jobs.
	st2 := submit(t, ts.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "config"}})
	if _, final := waitTerminal(t, ts.URL, st2.ID, 30*time.Second); final != StateDone {
		t.Fatalf("post-cancel job state %q", final)
	}
}

// TestSSEStream reads the events endpoint as Server-Sent Events and
// checks ids, event names and termination.
func TestSSEStream(t *testing.T) {
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submit(t, ts.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "config"}})
	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var names []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			names = append(names, strings.TrimPrefix(sc.Text(), "event: "))
		}
	}
	// The stream must end on its own (job terminal) with the full
	// lifecycle in order.
	if len(names) < 3 || names[0] != "queued" || names[len(names)-1] != "done" {
		t.Fatalf("SSE event names %v", names)
	}
}

// TestGracefulDrainPersistsAndResumes is the acceptance test of the
// drain tentpole: a lifetime-cancelled server (the SIGTERM path) stops
// with a nil error after persisting every completed sweep, and a
// restarted server over the same cache directory serves them from disk
// without re-sweeping.
func TestGracefulDrainPersistsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweeps")
	}
	dir := t.TempDir()
	s := newTestServer(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- s.ListenAndServe(ctx, "127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	// Kick off the five-product campaign and wait for the first sweep to
	// land (a product done event that is not a cache hit).
	st := submit(t, base, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-many"}})
	deadline := time.Now().Add(120 * time.Second)
	after, landed := 0, false
	for !landed {
		if time.Now().After(deadline) {
			t.Fatal("no sweep landed before deadline")
		}
		var page struct {
			State  State   `json:"state"`
			Events []Event `json:"events"`
		}
		getJSON(t, fmt.Sprintf("%s/jobs/%s/events?after=%d&wait=2s", base, st.ID, after), &page)
		for _, ev := range page.Events {
			after = ev.Seq
			if ev.Type == "product" && ev.Data["phase"] == "done" && ev.Data["cached"] == nil && ev.Data["error"] == nil {
				landed = true
			}
		}
		if page.State.Terminal() && !landed {
			t.Fatalf("job settled (%s) without a sweep landing", page.State)
		}
	}

	// SIGTERM: the CLI cancels the lifetime context (sigctx). Drain must
	// return nil — the process exits 0.
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("drained server returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain")
	}

	// Completed sweeps are on disk.
	persisted, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(persisted) == 0 {
		t.Fatalf("no persisted sweeps after drain (err %v)", err)
	}

	// A fresh server over the same cache dir serves them from disk: the
	// persisted products reload as cache hits, not re-sweeps.
	s2 := newTestServer(t, dir)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st2 := submit(t, ts2.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-many"}})
	events, final := waitTerminal(t, ts2.URL, st2.ID, 120*time.Second)
	if final != StateDone {
		t.Fatalf("restarted campaign state %q", final)
	}
	cachedHits := 0
	for _, ev := range events {
		if ev.Type == "product" && ev.Data["cached"] == true {
			cachedHits++
		}
	}
	if cachedHits < len(persisted) {
		t.Errorf("restart saw %d cache hits for %d persisted tables", cachedHits, len(persisted))
	}
	badco, _ := s2.Lab().SweepCounts()
	if int(badco) != len(testPolicies)-cachedHits {
		t.Errorf("restart ran %d sweeps with %d cache hits (want %d total products)",
			badco, cachedHits, len(testPolicies))
	}
	// And the cache endpoint can browse what the directory holds, with
	// identities preserved.
	var cacheList struct {
		Dir     string `json:"dir"`
		Entries []struct {
			Key   string `json:"key"`
			Table struct {
				Simulator string `json:"simulator"`
				Cores     int    `json:"cores"`
				Policy    string `json:"policy"`
			} `json:"table"`
		} `json:"entries"`
	}
	getJSON(t, ts2.URL+"/cache", &cacheList)
	if cacheList.Dir != dir || len(cacheList.Entries) < len(persisted) {
		t.Fatalf("/cache: dir %q, %d entries, want >= %d", cacheList.Dir, len(cacheList.Entries), len(persisted))
	}
	for _, e := range cacheList.Entries {
		if e.Table.Simulator != "badco" || e.Table.Cores != 2 || e.Table.Policy == "" {
			t.Errorf("cache entry %q lost identity: %+v", e.Key, e.Table)
		}
	}
	// The result still rendered from the mixed memo/disk products.
	var result JobResult
	getJSON(t, ts2.URL+"/jobs/"+st2.ID+"/result", &result)
	if result.Table == nil || len(result.Table.Rows) != len(testPolicies) {
		t.Fatalf("restart result %+v", result)
	}
}

// TestAdhocSampledJob drives a sampled simulate job end to end: the
// result must carry the confidence columns, and a sampled submission
// must not dedup onto an exact one.
func TestAdhocSampledJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	smp := &multicore.SamplingSpec{Unit: 500, Window: 100, Warmup: 100}
	st := submit(t, ts.URL, SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
		Workload: []string{"mcf", "povray"}, RunSpec: RunSpec{Sampling: smp},
	}})
	exact := submit(t, ts.URL, SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
		Workload: []string{"mcf", "povray"},
	}})
	if st.ID == exact.ID {
		t.Fatal("sampled submission deduped onto an exact job")
	}
	if _, final := waitTerminal(t, ts.URL, st.ID, 60*time.Second); final != StateDone {
		t.Fatalf("sampled job state %q", final)
	}
	var result JobResult
	getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &result)
	if len(result.Results) != 1 {
		t.Fatalf("results %+v", result)
	}
	r := result.Results[0]
	if r.Windows != 4 { // 2000-µop test traces, 500-µop units
		t.Errorf("windows = %d, want 4", r.Windows)
	}
	if len(r.CIHalf) != 2 || len(r.CV) != 2 || r.Sampling == nil {
		t.Fatalf("sampled result lacks confidence columns: %+v", r)
	}
	for i := range r.IPC {
		if r.IPC[i] <= 0 || r.CIHalf[i] <= 0 {
			t.Errorf("core %d: ipc %g ci %g", i, r.IPC[i], r.CIHalf[i])
		}
	}
	// The exact job shares the sampled job's traces and may still be
	// running on the second worker; both must settle before every trace
	// is released.
	if _, final := waitTerminal(t, ts.URL, exact.ID, 60*time.Second); final != StateDone {
		t.Fatalf("exact job state %q", final)
	}
	if got := bench.Resident(s.Lab().Source()); got != 0 {
		t.Errorf("%d traces resident after the sampled and exact jobs, want 0", got)
	}
}

// TestCacheUnusableDir: the cache endpoints read the lab's one store
// handle, and a directory that cannot be opened answers 500 on both
// rather than the empty listing of a server with no -cache.
func TestCacheUnusableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, filepath.Join(file, "cache"))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/cache", "/cache/some-key"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusInternalServerError {
			t.Errorf("GET %s on an unusable directory: status %d, want 500", path, code)
		}
	}
}
