package fleet

// Coordinator, sharding and agent tests over in-memory fake peers: no
// HTTP, millisecond heartbeats, deterministic rendezvous assertions.
// The HTTP wiring on top of this package is exercised by
// internal/serve's fleet tests and the root package's API tests.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mcbench/internal/buildinfo"
	"mcbench/internal/cache"
	"mcbench/internal/experiments"
)

// testBuild is the build identity fleet tests join with.
var testBuild = buildinfo.Info{Module: "mcbench", Version: "test", GoVersion: "go-test", Platform: "test/test"}

// fakeWorker is an in-memory Peer playing the worker role for a
// coordinator under test.
type fakeWorker struct {
	addr string

	mu        sync.Mutex
	shards    [][]experiments.Request // every SubmitWarm payload, in order
	jobs      int
	submitErr error
	waitErr   error
	blockWait bool // WaitJob blocks until its context is cancelled
	canceled  int
	cache     map[string][]byte
	fetched   []string
}

func (w *fakeWorker) Join(context.Context, JoinRequest) (*JoinResponse, error) {
	return nil, errors.New("fakeWorker is not a coordinator")
}
func (w *fakeWorker) Heartbeat(context.Context, string) error { return nil }
func (w *fakeWorker) Leave(context.Context, string) error     { return nil }

func (w *fakeWorker) SubmitWarm(_ context.Context, products []experiments.Request) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.submitErr != nil {
		return "", w.submitErr
	}
	w.shards = append(w.shards, append([]experiments.Request(nil), products...))
	w.jobs++
	return fmt.Sprintf("%s-j%d", w.addr, w.jobs), nil
}

func (w *fakeWorker) WaitJob(ctx context.Context, _ string) error {
	w.mu.Lock()
	block, err := w.blockWait, w.waitErr
	w.mu.Unlock()
	if block {
		<-ctx.Done()
		return ctx.Err()
	}
	return err
}

func (w *fakeWorker) CancelJob(context.Context, string) error {
	w.mu.Lock()
	w.canceled++
	w.mu.Unlock()
	return nil
}

func (w *fakeWorker) FetchCache(_ context.Context, key string) ([]byte, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fetched = append(w.fetched, key)
	data, ok := w.cache[key]
	return data, ok, nil
}

// received returns the distinct product keys the worker was ever asked
// to warm (flattened over all shards), using the request's Policy as a
// stand-in key (tests give each product a distinct policy).
func (w *fakeWorker) received() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, shard := range w.shards {
		for _, r := range shard {
			k := string(r.Policy)
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// fleetHarness wires a coordinator whose Dialer resolves addresses to
// the given fake workers.
func fleetHarness(t *testing.T, hb time.Duration, workers ...*fakeWorker) (*Coordinator, map[string]*fakeWorker) {
	t.Helper()
	byAddr := map[string]*fakeWorker{}
	for _, w := range workers {
		byAddr[w.addr] = w
	}
	c := NewCoordinator(Config{
		Build: testBuild, Lab: testLab,
		Heartbeat: hb,
		Dial: func(addr string) (Peer, error) {
			w, ok := byAddr[addr]
			if !ok {
				return nil, fmt.Errorf("unknown addr %s", addr)
			}
			return w, nil
		},
	})
	return c, byAddr
}

// testLab is the lab identity of fleetHarness coordinators.
var testLab = Lab{Source: "suite", TraceLen: 1000, Seed: 42}

// joinReq is the compatible handshake for fleetHarness coordinators.
func joinReq(addr string) JoinRequest {
	return JoinRequest{Addr: addr, Build: testBuild, Lab: testLab}
}

// keyed builds a keyed plan of n distinct products (distinct policies,
// so fakeWorker.received can recover them).
func keyed(n int) []experiments.KeyedRequest {
	out := make([]experiments.KeyedRequest, n)
	for i := range out {
		p := fmt.Sprintf("P%02d", i)
		out[i] = experiments.KeyedRequest{
			Req: experiments.Request{Sim: experiments.SimBadco, Cores: 2, Policy: cache.PolicyName(p)},
			Key: "badco|c2|" + p,
		}
	}
	return out
}

// beatForever renews the member's lease on a short cadence until the
// test ends.
func beatForever(t *testing.T, c *Coordinator, id string, every time.Duration) {
	t.Helper()
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.Beat(id)
			}
		}
	}()
}

func TestRendezvousRanking(t *testing.T) {
	ms := []*member{{id: "w001"}, {id: "w002"}, {id: "w003"}}
	a := rankMembers(ms, "some-key")
	b := rankMembers(ms, "some-key")
	for i := range a {
		if a[i].id != b[i].id {
			t.Fatalf("ranking not deterministic: %v vs %v", a, b)
		}
	}
	// Minimal disruption: dropping one member must not move any key it
	// did not own.
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	ownerOf := func(members []*member, key string) string {
		return rankMembers(members, key)[0].id
	}
	without2 := []*member{ms[0], ms[2]}
	moved, owned2 := 0, 0
	for _, k := range keys {
		before := ownerOf(ms, k)
		after := ownerOf(without2, k)
		if before == "w002" {
			owned2++
			continue // must move, anywhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved that w002 did not own", moved)
	}
	if owned2 == 0 {
		t.Errorf("degenerate test: w002 owned no keys of %d", len(keys))
	}
}

func TestJoinCompatibility(t *testing.T) {
	w := &fakeWorker{addr: "w1:1"}
	c, _ := fleetHarness(t, time.Second, w)

	if _, err := c.Join(joinReq("w1:1")); err != nil {
		t.Fatalf("compatible join failed: %v", err)
	}

	bad := joinReq("w1:1")
	bad.Build.Version = "other"
	if _, err := c.Join(bad); !errors.Is(err, ErrIncompatible) {
		t.Errorf("build mismatch: got %v, want ErrIncompatible", err)
	}

	bad = joinReq("w1:1")
	bad.TraceLen = 9999
	if _, err := c.Join(bad); !errors.Is(err, ErrIncompatible) {
		t.Errorf("lab mismatch: got %v, want ErrIncompatible", err)
	}

	bad = joinReq("w1:1")
	bad.Protocol = "smpu10000d2000w2000"
	if _, err := c.Join(bad); !errors.Is(err, ErrIncompatible) {
		t.Errorf("sampling mismatch: got %v, want ErrIncompatible", err)
	}

	bad = joinReq("w1:1")
	bad.Protocol = "w1500"
	if _, err := c.Join(bad); !errors.Is(err, ErrIncompatible) {
		t.Errorf("warmup mismatch: got %v, want ErrIncompatible", err)
	}

	bad = joinReq("")
	if _, err := c.Join(bad); err == nil || errors.Is(err, ErrIncompatible) {
		t.Errorf("empty addr: got %v, want a plain error", err)
	}
}

func TestRejoinReplacesByAddr(t *testing.T) {
	w := &fakeWorker{addr: "w1:1"}
	c, _ := fleetHarness(t, time.Second, w)

	r1, err := c.Join(joinReq("w1:1"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Join(joinReq("w1:1"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID == r2.ID {
		t.Errorf("rejoin granted the same id %s", r1.ID)
	}
	if n := c.Peers(); n != 1 {
		t.Errorf("after rejoin Peers() = %d, want 1 (old membership replaced)", n)
	}
	if c.Beat(r1.ID) {
		t.Errorf("stale membership %s still beats", r1.ID)
	}
	if !c.Beat(r2.ID) {
		t.Errorf("fresh membership %s rejected", r2.ID)
	}
}

func TestLeaseReaping(t *testing.T) {
	w := &fakeWorker{addr: "w1:1"}
	c, _ := fleetHarness(t, 10*time.Millisecond, w)
	resp, err := c.Join(joinReq("w1:1"))
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Peers(); n != 1 {
		t.Fatalf("Peers() = %d after join, want 1", n)
	}
	// Miss more than missedBeats intervals.
	time.Sleep(time.Duration(missedBeats+2) * 10 * time.Millisecond)
	if n := c.Peers(); n != 0 {
		t.Errorf("Peers() = %d after lease lapse, want 0", n)
	}
	if c.Beat(resp.ID) {
		t.Errorf("reaped member %s still beats", resp.ID)
	}
}

func TestWarmFleetHappyPath(t *testing.T) {
	ws := []*fakeWorker{{addr: "w1:1"}, {addr: "w2:2"}, {addr: "w3:3"}}
	c, _ := fleetHarness(t, time.Second, ws...)
	for _, w := range ws {
		if _, err := c.Join(joinReq(w.addr)); err != nil {
			t.Fatal(err)
		}
	}
	plan := keyed(9)
	// Duplicate the whole plan: dedup must collapse it.
	plan = append(plan, keyed(9)...)

	var events []ShardEvent
	var mu sync.Mutex
	rep := c.WarmFleet(context.Background(), plan, func(ev ShardEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	if rep.Members != 3 || rep.Products != 9 || rep.Stolen != 0 || rep.Unassigned != 0 {
		t.Errorf("report = %+v, want Members=3 Products=9 Stolen=0 Unassigned=0", rep)
	}
	var got []string
	for _, w := range ws {
		got = append(got, w.received()...)
	}
	sort.Strings(got)
	want := make([]string, 9)
	for i := range want {
		want[i] = fmt.Sprintf("P%02d", i)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fleet warmed %v, want %v", got, want)
	}
	dispatches, dones := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case "dispatch":
			dispatches++
		case "done":
			dones++
		case "steal":
			t.Errorf("unexpected steal event: %+v", ev)
		}
	}
	if dispatches != rep.Shards || dones != rep.Shards {
		t.Errorf("events: %d dispatches, %d dones, want %d each", dispatches, dones, rep.Shards)
	}
}

func TestWarmFleetStealsFromDeadWorker(t *testing.T) {
	dead := &fakeWorker{addr: "w1:1", blockWait: true}
	live := &fakeWorker{addr: "w2:2"}
	c, _ := fleetHarness(t, 20*time.Millisecond, dead, live)

	rd, err := c.Join(joinReq(dead.addr))
	if err != nil {
		t.Fatal(err)
	}
	rl, err := c.Join(joinReq(live.addr))
	if err != nil {
		t.Fatal(err)
	}
	_ = rd // the dead worker never beats again; its lease lapses mid-shard
	beatForever(t, c, rl.ID, 5*time.Millisecond)

	plan := keyed(8)
	rep := c.WarmFleet(context.Background(), plan, nil)

	if rep.Unassigned != 0 {
		t.Errorf("Unassigned = %d, want 0 (live worker should absorb stolen shards)", rep.Unassigned)
	}
	if rep.Stolen == 0 || c.Stolen() == 0 {
		t.Errorf("Stolen = %d (counter %d), want > 0", rep.Stolen, c.Stolen())
	}
	want := make([]string, 8)
	for i := range want {
		want[i] = fmt.Sprintf("P%02d", i)
	}
	if got := live.received(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("survivor warmed %v, want all of %v", got, want)
	}
}

func TestWarmFleetStealsFromStraggler(t *testing.T) {
	slow := &fakeWorker{addr: "w1:1", blockWait: true}
	fast := &fakeWorker{addr: "w2:2"}
	byAddr := map[string]*fakeWorker{slow.addr: slow, fast.addr: fast}
	c := NewCoordinator(Config{
		Build: testBuild, Lab: testLab,
		Heartbeat:  time.Second, // nobody dies
		StealAfter: 30 * time.Millisecond,
		Dial: func(addr string) (Peer, error) {
			return byAddr[addr], nil
		},
	})
	if _, err := c.Join(joinReq(slow.addr)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(joinReq(fast.addr)); err != nil {
		t.Fatal(err)
	}

	plan := keyed(8)
	rep := c.WarmFleet(context.Background(), plan, nil)

	if rep.Unassigned != 0 {
		t.Errorf("Unassigned = %d, want 0", rep.Unassigned)
	}
	if rep.Stolen == 0 {
		t.Errorf("Stolen = %d, want > 0 (straggler exceeded StealAfter)", rep.Stolen)
	}
	slow.mu.Lock()
	canceled := slow.canceled
	slow.mu.Unlock()
	if canceled == 0 {
		t.Errorf("straggler was never sent a cancel")
	}
	want := make([]string, 8)
	for i := range want {
		want[i] = fmt.Sprintf("P%02d", i)
	}
	if got := fast.received(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fast worker warmed %v, want all of %v", got, want)
	}
}

func TestWarmFleetNoMembers(t *testing.T) {
	c, _ := fleetHarness(t, time.Second)
	rep := c.WarmFleet(context.Background(), keyed(5), nil)
	if rep.Members != 0 || rep.Shards != 0 || rep.Unassigned != 5 {
		t.Errorf("report = %+v, want everything unassigned with no members", rep)
	}
}

func TestWarmFleetSubmitFailureExcludesWorker(t *testing.T) {
	broken := &fakeWorker{addr: "w1:1", submitErr: errors.New("queue full")}
	ok := &fakeWorker{addr: "w2:2"}
	c, _ := fleetHarness(t, time.Second, broken, ok)
	if _, err := c.Join(joinReq(broken.addr)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(joinReq(ok.addr)); err != nil {
		t.Fatal(err)
	}
	rep := c.WarmFleet(context.Background(), keyed(8), nil)
	if rep.Unassigned != 0 {
		t.Errorf("Unassigned = %d, want 0", rep.Unassigned)
	}
	want := make([]string, 8)
	for i := range want {
		want[i] = fmt.Sprintf("P%02d", i)
	}
	if got := ok.received(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("healthy worker warmed %v, want all of %v", got, want)
	}
}

func TestFetchRankedFallback(t *testing.T) {
	ws := []*fakeWorker{
		{addr: "w1:1", cache: map[string][]byte{}},
		{addr: "w2:2", cache: map[string][]byte{}},
		{addr: "w3:3", cache: map[string][]byte{}},
	}
	c, byAddr := fleetHarness(t, time.Second, ws...)
	ids := map[string]*fakeWorker{} // member id → worker
	for _, w := range ws {
		resp, err := c.Join(joinReq(w.addr))
		if err != nil {
			t.Fatal(err)
		}
		ids[resp.ID] = byAddr[w.addr]
	}

	const key = "badco|c2|LRU"
	// Plant the bytes on the SECOND-ranked member only: Fetch must fall
	// through the owner's miss and find them.
	ranked := rankMembers(c.live(), key)
	second := ids[ranked[1].id]
	second.mu.Lock()
	second.cache[key] = []byte("table-bytes")
	second.mu.Unlock()

	data, ok, err := c.Fetch(context.Background(), key)
	if err != nil || !ok || string(data) != "table-bytes" {
		t.Fatalf("Fetch = %q, %v, %v; want table-bytes via fallback", data, ok, err)
	}
	owner := ids[ranked[0].id]
	owner.mu.Lock()
	probedOwner := len(owner.fetched) > 0
	owner.mu.Unlock()
	if !probedOwner {
		t.Errorf("owner was never probed before the fallback")
	}

	if _, ok, err := c.Fetch(context.Background(), "absent-key"); ok || err != nil {
		t.Errorf("Fetch(absent) = ok=%v err=%v, want plain miss", ok, err)
	}
}

// fakeCoordinator is an in-memory Peer playing the coordinator role for
// an Agent under test.
type fakeCoordinator struct {
	mu       sync.Mutex
	joins    int
	joinErr  error
	beatErr  error
	beats    int
	leaves   int
	interval time.Duration
}

func (f *fakeCoordinator) Join(context.Context, JoinRequest) (*JoinResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.joins++
	if f.joinErr != nil {
		return nil, f.joinErr
	}
	return &JoinResponse{ID: fmt.Sprintf("w%03d", f.joins), Heartbeat: f.interval}, nil
}

func (f *fakeCoordinator) Heartbeat(context.Context, string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.beats++
	return f.beatErr
}

func (f *fakeCoordinator) Leave(context.Context, string) error {
	f.mu.Lock()
	f.leaves++
	f.mu.Unlock()
	return nil
}

func (f *fakeCoordinator) SubmitWarm(context.Context, []experiments.Request) (string, error) {
	return "", errors.New("not a worker")
}
func (f *fakeCoordinator) WaitJob(context.Context, string) error   { return nil }
func (f *fakeCoordinator) CancelJob(context.Context, string) error { return nil }
func (f *fakeCoordinator) FetchCache(context.Context, string) ([]byte, bool, error) {
	return nil, false, nil
}

func TestAgentJoinsAndBeats(t *testing.T) {
	fc := &fakeCoordinator{interval: 10 * time.Millisecond}
	a := NewAgent(AgentConfig{Coordinator: fc, Join: joinReq("me:1")})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	deadline := time.After(2 * time.Second)
	for {
		fc.mu.Lock()
		beats := fc.beats
		fc.mu.Unlock()
		if beats >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("agent never heartbeat twice")
		case <-time.After(5 * time.Millisecond):
		}
	}
	id, lastErr := a.Status()
	if id == "" || lastErr != nil {
		t.Errorf("Status() = %q, %v; want joined and healthy", id, lastErr)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("Run returned %v on clean shutdown, want nil", err)
	}
	fc.mu.Lock()
	leaves := fc.leaves
	fc.mu.Unlock()
	if leaves == 0 {
		t.Errorf("agent never sent Leave on shutdown")
	}
}

func TestAgentRejoinsAfterLostMembership(t *testing.T) {
	fc := &fakeCoordinator{interval: 5 * time.Millisecond, beatErr: errors.New("unknown fleet member")}
	a := NewAgent(AgentConfig{Coordinator: fc, Join: joinReq("me:1"), RetryEvery: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	deadline := time.After(2 * time.Second)
	for {
		fc.mu.Lock()
		joins := fc.joins
		fc.mu.Unlock()
		if joins >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("agent never re-joined after failing heartbeats")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("Run returned %v, want nil", err)
	}
}

func TestAgentFatalOnIncompatible(t *testing.T) {
	fc := &fakeCoordinator{joinErr: fmt.Errorf("%w: mixed versions", ErrIncompatible)}
	a := NewAgent(AgentConfig{Coordinator: fc, Join: joinReq("me:1")})
	err := a.Run(context.Background())
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("Run = %v, want ErrIncompatible", err)
	}
	if _, lastErr := a.Status(); !errors.Is(lastErr, ErrIncompatible) {
		t.Errorf("Status lastErr = %v, want ErrIncompatible", lastErr)
	}
}

// BenchmarkFleetCampaign measures the coordinator's pure orchestration
// cost — rendezvous partitioning, shard dispatch, event fan-out and the
// steal timers — over in-process peers that complete instantly, so the
// reported time is the fabric's per-campaign overhead, not simulation.
func BenchmarkFleetCampaign(b *testing.B) {
	ws := []*fakeWorker{{addr: "w1:1"}, {addr: "w2:2"}, {addr: "w3:3"}, {addr: "w4:4"}}
	byAddr := map[string]*fakeWorker{}
	for _, w := range ws {
		byAddr[w.addr] = w
	}
	c := NewCoordinator(Config{
		Build: testBuild, Lab: testLab,
		Heartbeat: time.Hour, // no reaping mid-benchmark
		Dial: func(addr string) (Peer, error) {
			w, ok := byAddr[addr]
			if !ok {
				return nil, fmt.Errorf("unknown addr %s", addr)
			}
			return w, nil
		},
	})
	for _, w := range ws {
		if _, err := c.Join(joinReq(w.addr)); err != nil {
			b.Fatal(err)
		}
	}
	const products = 32
	plan := keyed(products)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := c.WarmFleet(ctx, plan, func(ShardEvent) {})
		if rep.Unassigned != 0 || rep.Products != products || rep.Stolen != 0 {
			b.Fatalf("report %+v", rep)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*products), "ns/product")
}
