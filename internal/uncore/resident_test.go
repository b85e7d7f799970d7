package uncore

import (
	"math/rand"
	"testing"

	"mcbench/internal/cache"
)

// scanMSHR is mshrLookup without its filters: a plain scan of the file.
func scanMSHR(u *Uncore, line, now uint64) (uint64, bool) {
	for i, l := range u.mshrLine {
		if l == line && u.mshrDone[i] > now {
			return u.mshrDone[i], true
		}
	}
	return 0, false
}

// TestResidencyBitmapMatchesProbe pins the uncore's residency bitmap to
// the LLC's own set scan, and its filtered MSHR lookup to a plain scan of
// the file. Seeded mixes of timed, functional and prefetch requests from
// several cores run through one uncore; after every call, Resident
// agrees with llc.Probe, and mshrLookup with scanMSHR, on every line
// touched or proposed so far. The mixes carry trained streams and
// strides whose proposals run past the last allocated page; odd seeds
// run an LRU LLC and even seeds a DRRIP one.
func TestResidencyBitmapMatchesProbe(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := ConfigFor(4, [...]cache.PolicyName{cache.DRRIP, cache.LRU}[seed%2])
		cfg.PolicySeed = seed
		cfg.LLCBytes = 64 << 10 // small, so the mixes evict
		u := MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		seen := map[uint64]bool{}
		var order []uint64 // seen, in first-seen order, for stable failures
		see := func(line uint64) {
			if !seen[line] {
				seen[line] = true
				order = append(order, line)
			}
		}
		// Per-core stream heads and strided cursors over fresh pages.
		heads := make([]uint64, cfg.Cores)
		strides := make([]uint64, cfg.Cores)
		for c := range heads {
			heads[c] = uint64(c+1) << 24
			strides[c] = uint64(c+1)<<28 + 0x40
		}
		var now uint64
		burst, burstCore := 0, 0
		pastEnd, filledPastEnd := 0, false
		const calls = 1500
		for i := 0; i < calls; i++ {
			core := rng.Intn(cfg.Cores)
			pc := 0x400000 + uint64(rng.Intn(8))*16
			var vaddr uint64
			if burst == 0 && rng.Intn(10) < 2 {
				burst, burstCore = 20+rng.Intn(60), core
			}
			switch r := rng.Intn(10); {
			case burst > 0: // one core streams alone through fresh pages
				burst--
				core = burstCore
				heads[core] += cache.LineSize
				vaddr, pc = heads[core], 0x500000
			case r < 2: // streams interleaved across cores
				heads[core] += cache.LineSize
				vaddr, pc = heads[core], 0x500000
			case r < 5: // a constant stride of a few pages
				strides[core] += 3*PageSize + cache.LineSize
				vaddr, pc = strides[core], 0x600000
			default: // reuse within a small footprint
				vaddr = uint64(core)<<20 + uint64(rng.Intn(1<<14))
			}
			write, prefetch := rng.Intn(5) == 0, rng.Intn(6) == 0
			now += uint64(rng.Intn(40))
			if burst > 0 { // timed demand reads, each waiting out a miss
				write, prefetch = false, false
				now += 250
			}
			if burst == 0 && rng.Intn(3) == 0 {
				u.AccessFunctional(core, pc, vaddr, write, prefetch)
			} else {
				u.Access(core, pc, vaddr, write, prefetch, now)
			}
			see(cache.AlignLine(u.Translate(core, vaddr)))
			for _, a := range u.pfScratch {
				if a/PageSize >= u.nextPage {
					pastEnd++
				}
				see(cache.AlignLine(a))
			}
			filledPastEnd = filledPastEnd || uint64(len(u.resident)) > u.nextPage
			for _, l := range order {
				if got, want := u.Resident(l), u.llc.Probe(l); got != want {
					t.Fatalf("seed %d call %d: line %#x resident %v in the bitmap, %v in the LLC",
						seed, i, l, got, want)
				}
				for _, at := range [...]uint64{now, now + cfg.LLCLatency} {
					d, ok := u.mshrLookup(l, at)
					wd, wok := scanMSHR(u, l, at)
					if d != wd || ok != wok {
						t.Fatalf("seed %d call %d: line %#x at %d: mshrLookup (%d, %v), scan (%d, %v)",
							seed, i, l, at, d, ok, wd, wok)
					}
				}
			}
		}
		if pastEnd == 0 || !filledPastEnd {
			t.Errorf("seed %d: %d proposals past the last allocated page, filled one: %v",
				seed, pastEnd, filledPastEnd)
		}
	}
}
