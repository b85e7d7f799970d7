package uncore

import (
	"testing"

	"mcbench/internal/cache"
)

func testConfig() Config {
	cfg := ConfigFor(2, cache.LRU)
	cfg.PrefetchDegree = 1
	return cfg
}

func TestConfigForMatchesTableII(t *testing.T) {
	// LLC capacities are the paper's scaled by 1/4 (see ConfigFor);
	// latencies and the fixed parameters are the paper's.
	cases := []struct {
		cores   int
		bytes   int
		latency uint64
	}{
		{1, 256 << 10, 5},
		{2, 256 << 10, 5},
		{4, 512 << 10, 6},
		{8, 1 << 20, 7},
	}
	for _, c := range cases {
		cfg := ConfigFor(c.cores, cache.LRU)
		if cfg.LLCBytes != c.bytes || cfg.LLCLatency != c.latency {
			t.Errorf("ConfigFor(%d) = %d bytes / %d cycles, want %d / %d",
				c.cores, cfg.LLCBytes, cfg.LLCLatency, c.bytes, c.latency)
		}
		if cfg.LLCWays != 16 || cfg.MSHRs != 16 || cfg.WriteBufEnts != 8 || cfg.DRAMLatency != 200 {
			t.Errorf("ConfigFor(%d) fixed parameters wrong: %+v", c.cores, cfg)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 0
	if _, err := New(cfg); err == nil {
		t.Error("New accepted zero cores")
	}
	cfg = testConfig()
	cfg.MSHRs = 0
	if _, err := New(cfg); err == nil {
		t.Error("New accepted zero MSHRs")
	}
	cfg = testConfig()
	cfg.Policy = "nope"
	if _, err := New(cfg); err == nil {
		t.Error("New accepted unknown policy")
	}
	cfg = testConfig()
	cfg.LLCBytes = 12345
	if _, err := New(cfg); err == nil {
		t.Error("New accepted bad LLC size")
	}
	// The way map's byte bound, under a policy with no way limit of its
	// own (LRU stops at 16).
	cfg = testConfig()
	cfg.Policy = cache.FIFO
	cfg.LLCWays, cfg.LLCBytes = 256, 256*cache.LineSize
	if _, err := New(cfg); err == nil {
		t.Error("New accepted 256 LLC ways")
	}
	cfg.LLCWays, cfg.LLCBytes = 255, 255*cache.LineSize
	if _, err := New(cfg); err != nil {
		t.Errorf("New refused 255 LLC ways: %v", err)
	}
}

func TestTranslateAllocatesDistinctPagesPerCore(t *testing.T) {
	u := MustNew(testConfig())
	a0 := u.Translate(0, 0x1000)
	a1 := u.Translate(1, 0x1000)
	if a0 == a1 {
		t.Fatal("two cores share a physical page for the same vaddr")
	}
	// Stable on re-translation.
	if got := u.Translate(0, 0x1000); got != a0 {
		t.Fatal("translation not stable")
	}
	// Same page, different offset.
	if got := u.Translate(0, 0x1008); got != a0+8 {
		t.Fatalf("offset broken: %#x vs %#x", got, a0+8)
	}
}

func TestMissThenHitLatency(t *testing.T) {
	cfg := testConfig()
	u := MustNew(cfg)
	const vaddr = 0x4000
	done := u.Access(0, 0x99, vaddr, false, false, 0)
	// A cold miss pays LLC lookup + command + DRAM + line transfer.
	minMiss := cfg.LLCLatency + cfg.DRAMLatency
	if done <= minMiss {
		t.Fatalf("miss completed at %d, want > %d", done, minMiss)
	}
	// After the fill, the same line hits at LLC latency.
	done2 := u.Access(0, 0x99, vaddr, false, false, done)
	if got := done2 - done; got != cfg.LLCLatency {
		t.Fatalf("hit latency %d, want %d", got, cfg.LLCLatency)
	}
	s := u.Stats()
	if s.Requests != 2 || s.DemandMisses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMSHRMergesSameLine(t *testing.T) {
	u := MustNew(testConfig())
	a := u.Access(0, 1, 0x8000, false, false, 0)
	b := u.Access(0, 1, 0x8010, false, false, 1) // same line, while in flight
	if b > a {
		t.Fatalf("merged secondary miss completes at %d after primary %d", b, a)
	}
	if s := u.Stats(); s.DRAMRequests != 1 {
		t.Fatalf("merge still went to DRAM: %d requests", s.DRAMRequests)
	}
}

func TestMSHRCapacityDelays(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 2
	cfg.PrefetchDegree = 1
	u := MustNew(cfg)
	// Use pointer-chase-like PCs/addresses to avoid prefetcher noise: the
	// stride between requests varies.
	addrs := []uint64{0x10000, 0x31000, 0x77000, 0x120000}
	var last uint64
	for i, a := range addrs {
		last = u.Access(0, uint64(0x100+i*64), a, false, false, 0)
	}
	// With 2 MSHRs the 4 misses cannot all overlap: the last one must
	// complete later than an unconstrained miss would.
	unconstrained := MustNew(testConfig()).Access(0, 0x100, 0x10000, false, false, 0)
	if last <= unconstrained {
		t.Fatalf("MSHR-limited miss completed at %d, want > %d", last, unconstrained)
	}
}

func TestSharedLLCContention(t *testing.T) {
	// Each core's footprint is 3/4 of the LLC. Alone, a second pass over
	// the footprint mostly hits. With a co-runner, the combined 1.5x
	// footprint causes capacity evictions, so the second pass re-fetches
	// from DRAM: contention must show up as extra memory traffic.
	run := func(cores int) uint64 {
		cfg := testConfig()
		u := MustNew(cfg)
		lines := cfg.LLCBytes / cache.LineSize * 3 / 4
		now := uint64(0)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < lines; i++ {
				for c := 0; c < cores; c++ {
					// Pointer-chase-like permuted order defeats the
					// prefetchers so capacity behaviour dominates.
					a := uint64((i*7919+13)%lines) * cache.LineSize
					now = u.Access(c, uint64(0x100+c), a, false, false, now)
				}
			}
		}
		return u.Stats().DRAMRequests
	}
	solo := run(1)
	duo := run(2)
	if duo < solo*2+solo/2 {
		t.Errorf("co-scheduled DRAM requests %d, want well above 2x solo (%d)", duo, 2*solo)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := testConfig()
	cfg.LLCBytes = 64 * 1024 // small LLC to force evictions quickly
	u := MustNew(cfg)
	now := uint64(0)
	lines := cfg.LLCBytes / cache.LineSize * 2
	for i := 0; i < lines; i++ {
		now = u.Access(0, 0x300, uint64(i*cache.LineSize), true, false, now)
	}
	if s := u.Stats(); s.Writebacks == 0 {
		t.Fatal("dirty evictions produced no writebacks")
	}
}

func TestPrefetcherReducesStreamMisses(t *testing.T) {
	run := func(degree int) uint64 {
		cfg := testConfig()
		cfg.PrefetchDegree = degree
		u := MustNew(cfg)
		now := uint64(0)
		// Sequential stream with ~64 cycles of compute between accesses:
		// a deeper prefetcher has time to run ahead of demand, a
		// degree-1 prefetcher's fills are still in flight when demand
		// arrives, so its accesses wait longer.
		var totalWait uint64
		for i := 0; i < 2000; i++ {
			done := u.Access(0, 0x500, uint64(i*cache.LineSize), false, false, now)
			totalWait += done - now
			now += 64
		}
		return totalWait
	}
	low := run(1)
	high := run(4)
	if high >= low {
		t.Errorf("degree-4 prefetch total wait %d not below degree-1 wait %d", high, low)
	}
}

func TestFixedLatency(t *testing.T) {
	f := &FixedLatency{Lat: 42}
	if got := f.Access(0, 0, 0x1000, false, false, 100); got != 142 {
		t.Errorf("FixedLatency access = %d, want 142", got)
	}
	if f.N != 1 {
		t.Errorf("request count %d", f.N)
	}
}

func TestAccessPanicsOnBadCore(t *testing.T) {
	u := MustNew(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range core")
		}
	}()
	u.Access(5, 0, 0, false, false, 0)
}
