package experiments

import (
	"math"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/multicore"
	"mcbench/internal/results"
)

// warmupConfig is a deliberately tiny campaign: the warmed sweeps run
// every workload through warmup once per policy-group, so the test pins
// exact bits, not statistics.
func warmupConfig() Config {
	cfg := QuickConfig()
	cfg.TraceLen = 6000
	cfg.PopLimit = 5
	cfg.DetailedCount = 5
	cfg.Warmup = 1500
	return cfg
}

// TestDetailedIPCSharedWarmup pins the lab's grouped shared-warmup sweep
// to the per-workload checkpoint protocol it rides on: warm once under
// the first case-study policy, fan every policy out from clones of the
// warmed machine. Row order must follow the detailed sample.
func TestDetailedIPCSharedWarmup(t *testing.T) {
	l := NewLab(warmupConfig())
	pols := Policies()
	pop := l.Population(2)
	sample := l.DetSample(2)
	prov := l.Provider()
	warm := uint64(l.Config().Warmup)

	want := make(map[cache.PolicyName][][]float64, len(pols))
	for _, p := range pols {
		want[p] = make([][]float64, len(sample))
	}
	for i, wi := range sample {
		w := l.toMulticore(pop.Workloads[wi])
		cp := must(multicore.DetailedWarmup(tctx, w, prov, pols[0], warm))
		for _, p := range pols {
			want[p][i] = must(multicore.DetailedFrom(tctx, cp, p, 0)).IPC
		}
	}

	for _, p := range pols {
		got := must(l.DetailedIPC(tctx, 2, p))
		if len(got) != len(sample) {
			t.Fatalf("%s: %d rows, want %d", p, len(got), len(sample))
		}
		for i := range got {
			for k := range got[i] {
				if math.Float64bits(got[i][k]) != math.Float64bits(want[p][i][k]) {
					t.Errorf("%s: workload %d core %d: IPC %v, want %v", p, i, k, got[i][k], want[p][i][k])
				}
			}
		}
	}
	// The whole policy group rode one grouped sweep.
	if _, det := l.SweepCounts(); det != 1 {
		t.Errorf("detailed sweeps = %d, want 1 for the shared group", det)
	}

	// The base policy's warmed table must also match the uninterrupted
	// two-stage run — no checkpoint, no clone — closing the loop between
	// the lab protocol and live machines.
	for i, wi := range sample {
		w := l.toMulticore(pop.Workloads[wi])
		direct := must(multicore.Run(tctx, w, multicore.Spec{Engine: multicore.Detailed, Policy: pols[0], Warmup: warm}, prov, nil))
		row := must(l.DetailedIPC(tctx, 2, pols[0]))[i]
		for k := range row {
			if math.Float64bits(row[k]) != math.Float64bits(direct.IPC[k]) {
				t.Errorf("workload %d core %d: table IPC %v, live two-stage %v", i, k, row[k], direct.IPC[k])
			}
		}
	}
}

// TestBadcoIPCWarmup pins the warmed BADCO sweep to per-workload
// uninterrupted two-stage runs.
func TestBadcoIPCWarmup(t *testing.T) {
	l := NewLab(warmupConfig())
	pop := l.Population(2)
	models := must(l.Models(tctx))
	warm := uint64(l.Config().Warmup)

	got := must(l.BadcoIPC(tctx, 2, cache.DRRIP))
	if len(got) != pop.Size() {
		t.Fatalf("%d rows, want %d", len(got), pop.Size())
	}
	for i, w := range pop.Workloads {
		want := must(multicore.Run(tctx, l.toMulticore(w), multicore.Spec{Engine: multicore.BADCO, Policy: cache.DRRIP, Warmup: warm}, nil, models))
		for k := range got[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want.IPC[k]) {
				t.Errorf("workload %d core %d: IPC %v, want %v", i, k, got[i][k], want.IPC[k])
			}
		}
	}
}

// TestWarmupBeyondTraceLen: a lab may warm a prefix longer than the
// measured sample (one trace length); both population tables run.
func TestWarmupBeyondTraceLen(t *testing.T) {
	cfg := QuickConfig()
	cfg.TraceLen = 2000
	cfg.PopLimit = 3
	cfg.DetailedCount = 3
	cfg.Warmup = 5000
	l := NewLab(cfg)
	for name, table := range map[string][][]float64{
		"badco":    must(l.BadcoIPC(tctx, 2, cache.LRU)),
		"detailed": must(l.DetailedIPC(tctx, 2, cache.LRU)),
	} {
		if len(table) == 0 {
			t.Errorf("%s: empty table", name)
		}
		for i, row := range table {
			for k, ipc := range row {
				if !(ipc > 0) {
					t.Errorf("%s: workload %d core %d: IPC %v", name, i, k, ipc)
				}
			}
		}
	}
}

// TestProductKeyMatchesStoredKey pins ProductKey to the key the lab
// actually persists a table under, for every run protocol (exact,
// warmed, sampled) and both population tables: the fleet shards by
// ProductKey and fetches by the stored key, so the two must never drift.
func TestProductKeyMatchesStoredKey(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps")
	}
	for _, c := range []struct {
		name     string
		warmup   int
		sampling multicore.SamplingSpec
	}{
		{"exact", 0, multicore.SamplingSpec{}},
		{"warmed", 500, multicore.SamplingSpec{}},
		{"sampled", 0, multicore.SamplingSpec{Unit: 1000, Window: 200, Warmup: 200}},
	} {
		cfg := QuickConfig()
		cfg.TraceLen = 2000
		cfg.PopLimit = 3
		cfg.DetailedCount = 3
		cfg.Warmup = c.warmup
		cfg.Sampling = c.sampling
		for _, sim := range []Simulator{SimBadco, SimDetailed} {
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
				t.Errorf("%s %s: ProductKey %q (ok=%v), stored entries %+v", c.name, sim, key, ok, entries)
			}
		}
	}
}
