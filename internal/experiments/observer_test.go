package experiments

import (
	"sync"
	"testing"

	"mcbench/internal/cache"
)

// eventLog is a concurrency-safe ProductEvent collector.
type eventLog struct {
	mu  sync.Mutex
	evs []ProductEvent
}

func (e *eventLog) add(ev ProductEvent) {
	e.mu.Lock()
	e.evs = append(e.evs, ev)
	e.mu.Unlock()
}

func (e *eventLog) filter(sim Simulator, phase string) []ProductEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []ProductEvent
	for _, ev := range e.evs {
		if ev.Sim == sim && ev.Phase == phase {
			out = append(out, ev)
		}
	}
	return out
}

// TestObserverSeesSweepLifecycle pins the progress-hook contract the
// serve subsystem streams to clients: a computed product emits start then
// done (with rows), a memo hit emits nothing, and a persistent-cache hit
// in a fresh lab emits a single done with Cached set.
func TestObserverSeesSweepLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	dir := t.TempDir()
	log := &eventLog{}
	cfg := QuickConfig()
	cfg.TraceLen = 2000
	cfg.CacheDir = dir
	cfg.Observer = log.add
	l := NewLab(cfg)

	tab := must(l.BadcoIPC(tctx, 2, cache.LRU))
	starts := log.filter("badco", "start")
	dones := log.filter("badco", "done")
	if len(starts) != 1 || len(dones) != 1 {
		t.Fatalf("badco events: %d starts, %d dones, want 1/1", len(starts), len(dones))
	}
	d := dones[0]
	if d.Cached || d.Err != nil || d.Rows != len(tab) || d.Cores != 2 || d.Policy != cache.LRU {
		t.Errorf("done event %+v does not describe the sweep (rows %d)", d, len(tab))
	}
	if len(log.filter("models", "done")) != 1 {
		t.Errorf("model build not observed")
	}

	// Memo hit: no new events.
	must(l.BadcoIPC(tctx, 2, cache.LRU))
	if got := log.filter("badco", "done"); len(got) != 1 {
		t.Fatalf("memo hit emitted events: %d dones", len(got))
	}

	// A fresh lab over the same cache dir serves the table from disk and
	// says so.
	log2 := &eventLog{}
	cfg2 := cfg
	cfg2.Observer = log2.add
	l2 := NewLab(cfg2)
	must(l2.BadcoIPC(tctx, 2, cache.LRU))
	if starts := log2.filter("badco", "start"); len(starts) != 0 {
		t.Errorf("cache hit emitted a start event")
	}
	dones2 := log2.filter("badco", "done")
	if len(dones2) != 1 || !dones2[0].Cached || dones2[0].Rows != len(tab) {
		t.Fatalf("cache hit events %+v, want one cached done", dones2)
	}
	if b, _ := l2.SweepCounts(); b != 0 {
		t.Errorf("cache-served lab ran %d sweeps", b)
	}
	if b, _ := l.SweepCounts(); b != 1 {
		t.Errorf("SweepCounts = %d, want 1", b)
	}
}
