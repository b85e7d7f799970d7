package experiments

import (
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/results"
)

// TestProductKeyMatchesStoredKey pins ProductKey to the key the lab
// actually persists a product under, for every persisted product: the
// fleet shards by ProductKey and fetches by the stored key, so the two
// must never drift. The reference IPC and MPKI vectors do not depend on
// the seed, so their keys are pinned literally and carry none.
func TestProductKeyMatchesStoredKey(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps")
	}
	vectorKeys := map[Simulator]string{
		SimRef:  "ref-c2-LRU-l2000-p22-s0",
		SimMPKI: "mpki-c1-LRU-l2000-p22-s0",
	}
	cfg := QuickConfig()
	cfg.TraceLen = 2000
	cfg.PopLimit = 3
	cfg.DetailedCount = 3
	for _, sim := range []Simulator{SimBadco, SimDetailed, SimRef, SimMPKI} {
		cfg.CacheDir = t.TempDir()
		l := NewLab(cfg)
		r := Request{Sim: sim, Cores: 2, Policy: cache.LRU}
		if err := l.fulfill(tctx, r); err != nil {
			t.Fatal(err)
		}
		store, err := results.Open(cfg.CacheDir)
		if err != nil {
			t.Fatal(err)
		}
		entries := must(store.List())
		key, ok := l.ProductKey(r)
		if !ok || len(entries) != 1 || entries[0].Key != key {
			t.Errorf("%s: ProductKey %q (ok=%v), stored entries %+v", sim, key, ok, entries)
		}
		if want, vector := vectorKeys[sim]; vector && key != want {
			t.Errorf("%s: ProductKey %q, want %q", sim, key, want)
		}
		// No seed-drawn population, sample or trial enters the
		// vectors, so a lab on another seed shares their keys.
		other := cfg
		other.Seed++
		if k, _ := NewLab(other).ProductKey(r); vectorKeys[sim] != "" && k != key {
			t.Errorf("%s: seed %d keys %q, seed %d keys %q", sim, cfg.Seed, key, other.Seed, k)
		}
	}
	if key, ok := NewLab(QuickConfig()).ProductKey(Request{Sim: SimModels}); ok {
		t.Errorf("the BADCO models have a product key %q; they are not persisted", key)
	}
}
