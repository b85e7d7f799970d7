package uncore

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mcbench/internal/cache"
)

// Property: every access completes at or after now + LLC latency, and
// identical request sequences produce identical completion sequences.
func TestAccessCompletionProperty(t *testing.T) {
	f := func(seed int64) bool {
		mk := func() *Uncore { return MustNew(ConfigFor(2, cache.DIP)) }
		u1, u2 := mk(), mk()
		rng := rand.New(rand.NewSource(seed))
		now := uint64(0)
		for i := 0; i < 400; i++ {
			core := rng.Intn(2)
			vaddr := uint64(rng.Intn(1 << 22))
			write := rng.Intn(4) == 0
			pc := uint64(0x400000 + rng.Intn(64)*8)
			d1 := u1.Access(core, pc, vaddr, write, false, now)
			d2 := u2.Access(core, pc, vaddr, write, false, now)
			if d1 != d2 {
				return false // nondeterministic
			}
			if d1 < now+u1.cfg.LLCLatency {
				return false // faster than an LLC hit
			}
			now += uint64(rng.Intn(50))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a second access to the same line at/after the first one's
// completion is always a cheap hit (the fill really installed the line).
func TestFillInstallsLineProperty(t *testing.T) {
	f := func(seed int64) bool {
		u := MustNew(ConfigFor(1, cache.LRU))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			vaddr := uint64(rng.Intn(1 << 20))
			done := u.Access(0, 0x500, vaddr, false, false, 0)
			again := u.Access(0, 0x500, vaddr, false, false, done)
			if again != done+u.cfg.LLCLatency {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the MSHR file throttles miss bursts. With a file of size M, a
// burst of simultaneous misses is serviced at most M at a time, so the
// i-th completion (in completion order) cannot land before the (i-M)-th
// completion plus the DRAM access time. A larger file never makes any
// fill of the same burst slower.
func TestMSHRBoundProperty(t *testing.T) {
	const burstLen = 12
	burst := func(mshrs int) []uint64 {
		cfg := ConfigFor(1, cache.LRU)
		cfg.MSHRs = mshrs
		u := MustNew(cfg)
		dones := make([]uint64, 0, burstLen)
		for i := 0; i < burstLen; i++ {
			// Spread addresses widely so no two misses merge, each from
			// its own PC so no prefetcher trains.
			vaddr := uint64(i) * 131072
			dones = append(dones, u.Access(0, uint64(0x100+i*88), vaddr, false, false, 0))
		}
		// The burst's fills are demand fills only.
		if n := u.Stats().PrefetchIssued; n != 0 {
			t.Fatalf("%d MSHRs: %d prefetches issued during the burst", mshrs, n)
		}
		sort.Slice(dones, func(a, b int) bool { return dones[a] < dones[b] })
		return dones
	}

	small, big := burst(4), burst(16)
	cfg := ConfigFor(1, cache.LRU)
	for i, done := range small {
		if i >= 4 && done < small[i-4]+cfg.DRAMLatency {
			t.Errorf("fill %d completed at %d, before predecessor %d (at %d) freed an MSHR",
				i, done, i-4, small[i-4])
		}
	}
	for i := range small {
		if big[i] > small[i] {
			t.Errorf("fill %d: 16 MSHRs completed at %d, later than 4 MSHRs at %d",
				i, big[i], small[i])
		}
	}
	if last := burstLen - 1; big[last] >= small[last] {
		t.Errorf("16-MSHR burst not faster overall: %d vs %d", big[last], small[last])
	}
}

func TestResetStatsKeepsState(t *testing.T) {
	u := MustNew(ConfigFor(1, cache.LRU))
	done := u.Access(0, 0x100, 0x4000, false, false, 0)
	u.ResetStats()
	if s := u.Stats(); s.Requests != 0 || s.DemandMisses != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	// The line must still be resident (state preserved).
	if got := u.Access(0, 0x100, 0x4000, false, false, done); got != done+u.cfg.LLCLatency {
		t.Fatal("ResetStats dropped cache state")
	}
}
