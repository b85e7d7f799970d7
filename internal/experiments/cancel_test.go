package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mcbench/internal/cache"
	"mcbench/internal/memo"
)

// waitGoroutines polls until the goroutine count returns to (near) the
// baseline, proving cancelled campaigns leave nothing running.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain: %d, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestWarmCancelPromptAndRetryable proves the tentpole's cancellation
// contract end to end: a cancelled context aborts a whole campaign warm
// mid-sweep well before it could finish, leaks no goroutines, does not
// poison the memoization (the cancelled product is retried, not served
// as a broken cache hit), and a later uncancelled Warm completes.
func TestWarmCancelPromptAndRetryable(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	l := tinyLab()
	plan := []Request{
		{Sim: SimBadco, Cores: 2, Policy: cache.LRU},
		{Sim: SimBadco, Cores: 2, Policy: cache.FIFO},
		{Sim: SimDetailed, Cores: 2, Policy: cache.LRU},
		{Sim: SimRef, Cores: 2},
		{Sim: SimMPKI},
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var warmErr error
	start := time.Now()
	go func() {
		defer close(done)
		_, warmErr = l.Warm(ctx, plan, 0)
	}()
	// Let the campaign get into real simulation work, then pull the plug.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Warm did not return after cancellation")
	}
	if !errors.Is(warmErr, context.Canceled) {
		t.Fatalf("Warm error = %v, want context.Canceled", warmErr)
	}
	t.Logf("cancelled warm returned in %v", time.Since(start).Round(time.Millisecond))
	waitGoroutines(t, baseline)

	// The cancelled products were not memoized as failures: a fresh,
	// uncancelled Warm of the same plan completes and the tables read
	// back consistent.
	if _, err := l.Warm(context.Background(), plan, 0); err != nil {
		t.Fatalf("Warm after cancel: %v", err)
	}
	tab := must(l.BadcoIPC(tctx, 2, cache.LRU))
	if len(tab) != 253 {
		t.Fatalf("post-cancel table has %d rows", len(tab))
	}
}

// TestSweepCancelledBeforeStart: a pre-cancelled context fails fast
// without touching the simulators.
func TestSweepCancelledBeforeStart(t *testing.T) {
	l := tinyLab()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.BadcoIPC(ctx, 2, cache.LRU); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if got := l.badcoSweeps.Load(); got != 0 {
		t.Errorf("%d sweeps ran under a cancelled context", got)
	}
}

// TestFlightGroupDropsFailures pins the retry semantics the cancellation
// story depends on: a failed computation is reported to its waiters but
// not memoized, and the next caller recomputes.
func TestFlightGroupDropsFailures(t *testing.T) {
	var g memo.Group[string, int]
	calls := 0
	boom := errors.New("boom")
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err := g.Do(context.Background(), "k", compute); !errors.Is(err, boom) {
		t.Fatalf("first do: %v", err)
	}
	v, err := g.Do(context.Background(), "k", compute)
	if err != nil || v != 42 {
		t.Fatalf("retry: %v %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	// Memoized now: no third call.
	if v, _ := g.Do(context.Background(), "k", compute); v != 42 || calls != 2 {
		t.Fatalf("memoization broken: v=%d calls=%d", v, calls)
	}
}

// TestFlightGroupWaiterRetriesAfterCreatorCancelled: when the caller
// that owns the computation is cancelled, a waiter with a live context
// must not inherit the foreign cancellation — it retries the
// computation under its own context.
func TestFlightGroupWaiterRetriesAfterCreatorCancelled(t *testing.T) {
	var g memo.Group[string, int]
	creatorCtx, cancelCreator := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	creatorDone := make(chan error, 1)
	go func() {
		_, err := g.Do(creatorCtx, "k", func() (int, error) {
			close(started)
			<-release
			return 0, creatorCtx.Err() // cancelled mid-compute
		})
		creatorDone <- err
	}()
	<-started
	waiterDone := make(chan struct{})
	var v int
	var err error
	go func() {
		defer close(waiterDone)
		v, err = g.Do(context.Background(), "k", func() (int, error) { return 99, nil })
	}()
	// Let the waiter block on the creator's computation first: a waiter
	// that arrives after the failed entry is dropped starts afresh and
	// would pass without ever seeing the foreign cancellation.
	time.Sleep(50 * time.Millisecond)
	cancelCreator()
	close(release)
	if cerr := <-creatorDone; !errors.Is(cerr, context.Canceled) {
		t.Fatalf("creator error = %v", cerr)
	}
	select {
	case <-waiterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter did not retry")
	}
	if err != nil || v != 99 {
		t.Fatalf("waiter got %v, %v; want 99 via retry", v, err)
	}
}

// TestFlightGroupWaiterCancellation: a waiter whose own context dies
// stops waiting with ctx.Err() while the computation proceeds for the
// original caller.
func TestFlightGroupWaiterCancellation(t *testing.T) {
	var g memo.Group[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	go g.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 7, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Do(ctx, "k", func() (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
	close(release)
	if v, err := g.Do(context.Background(), "k", nil); err != nil || v != 7 {
		t.Fatalf("original computation lost: %v %v", v, err)
	}
}
