package memo

import (
	"context"
	"errors"
	"testing"
)

// block starts a computation of key that runs until release is closed,
// and returns once it is in flight, with a channel its result arrives on.
func block(g *Group[string, int], key string, v int, release chan struct{}) <-chan int {
	started, out := make(chan struct{}), make(chan int, 1)
	go func() {
		got, _ := g.Do(context.Background(), key, func() (int, error) {
			close(started)
			<-release
			return v, nil
		})
		out <- got
	}()
	<-started
	return out
}

// TestForgetLeavesInFlight: Forget drops only a settled value. An
// in-flight computation stays the key's one computation — a later Do
// joins it instead of starting another — and becomes forgettable once
// settled.
func TestForgetLeavesInFlight(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	first := block(&g, "k", 7, release)
	g.Forget("k")
	if g.Len() != 1 {
		t.Fatalf("Len %d after forgetting an in-flight entry, want 1", g.Len())
	}
	joined := make(chan int, 1)
	go func() {
		v, _ := g.Do(context.Background(), "k", func() (int, error) { return 99, nil })
		joined <- v
	}()
	close(release)
	if v := <-first; v != 7 {
		t.Fatalf("computing caller got %d, want 7", v)
	}
	if v := <-joined; v != 7 {
		t.Fatalf("later caller got %d, want 7 from the in-flight computation", v)
	}
	if v, ok := g.Cached("k"); !ok || v != 7 {
		t.Fatalf("Cached = %d, %v after settling; want 7, true", v, ok)
	}
	g.Forget("k")
	if g.Len() != 0 {
		t.Fatalf("Len %d after forgetting a settled entry, want 0", g.Len())
	}
	if v, _ := g.Do(context.Background(), "k", func() (int, error) { return 8, nil }); v != 8 {
		t.Fatalf("Do after Forget got %d, want a recomputed 8", v)
	}
	g.Forget("unknown") // a no-op
}

// TestCachedSettledSuccessOnly: Cached reports a value only once its
// computation has succeeded — never one in flight, never a failure —
// and never starts or waits on a computation.
func TestCachedSettledSuccessOnly(t *testing.T) {
	var g Group[string, int]
	if _, ok := g.Cached("k"); ok {
		t.Fatal("Cached reported an unknown key")
	}
	release := make(chan struct{})
	done := block(&g, "k", 7, release)
	if v, ok := g.Cached("k"); ok {
		t.Fatalf("Cached reported in-flight value %d", v)
	}
	close(release)
	<-done
	if v, ok := g.Cached("k"); !ok || v != 7 {
		t.Fatalf("Cached = %d, %v; want 7, true", v, ok)
	}

	boom := errors.New("boom")
	if _, err := g.Do(context.Background(), "f", func() (int, error) { return 5, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error %v, want boom", err)
	}
	if v, ok := g.Cached("f"); ok {
		t.Fatalf("Cached reported failed value %d", v)
	}
	// A caller of Cached can fetch a failing entry just before Do drops
	// it and find it settled just after: the failure must still not be
	// reported.
	settled := make(chan struct{})
	close(settled)
	g.mu.Lock()
	g.m["f"] = &entry[int]{done: settled, val: 5, err: boom}
	g.mu.Unlock()
	if v, ok := g.Cached("f"); ok {
		t.Fatalf("Cached reported settled failed value %d", v)
	}
}
