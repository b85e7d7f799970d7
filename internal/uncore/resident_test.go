package uncore

import (
	"fmt"
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

// scanProbe is mshrProbe as a plain scan: the occupied slots' count and
// the last occupied slot holding line.
func scanProbe(u *Uncore, line, now uint64) (done uint64, ok bool, count int) {
	for i, d := range u.mshrDone {
		if d > now {
			count++
			if u.mshrLine[i] == line {
				done, ok = d, true
			}
		}
	}
	return done, ok, count
}

// scanInFlight is mshrInFlight as a plain scan: the occupied slots'
// count and their earliest completion (0 if none).
func scanInFlight(u *Uncore, now uint64) (count int, earliest uint64) {
	for _, d := range u.mshrDone {
		if d > now && (count == 0 || d < earliest) {
			earliest = d
		}
		if d > now {
			count++
		}
	}
	return count, earliest
}

// checkMSHR compares the three filtered MSHR helpers with their plain
// scans for line at now, and returns the first disagreement ("" if none).
func checkMSHR(u *Uncore, line, now uint64) string {
	d, ok := u.mshrLookup(line, now)
	if wd, wok := scanMSHR(u, line, now); d != wd || ok != wok {
		return fmt.Sprintf("mshrLookup (%d, %v), scan (%d, %v)", d, ok, wd, wok)
	}
	d, ok, n := u.mshrProbe(line, now)
	if wd, wok, wn := scanProbe(u, line, now); d != wd || ok != wok || n != wn {
		return fmt.Sprintf("mshrProbe (%d, %v, %d), scan (%d, %v, %d)", d, ok, n, wd, wok, wn)
	}
	n, e := u.mshrInFlight(now)
	if wn, we := scanInFlight(u, now); n != wn || e != we {
		return fmt.Sprintf("mshrInFlight (%d, %d), scan (%d, %d)", n, e, wn, we)
	}
	return ""
}

// TestMSHRMatchesPlainScan drives the MSHR file with the non-monotone
// clocks it sees in a run, where each core books at its own local time,
// and compares mshrLookup, mshrProbe and mshrInFlight with plain scans
// after every booking, at times before, inside and after the bookings.
// The few lines booked over and over leave two occupied slots holding
// one line at early times, where mshrLookup's first match and
// mshrProbe's last one differ.
func TestMSHRMatchesPlainScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		u := MustNew(ConfigFor(4, cache.LRU))
		rng := rand.New(rand.NewSource(seed))
		clocks := make([]uint64, 4)
		twice := 0
		for i := 0; i < 4000; i++ {
			c := rng.Intn(len(clocks))
			clocks[c] += uint64(rng.Intn(60))
			now := clocks[c]
			// Lines in and across buckets: a handful of hot lines and a
			// wide range that rarely repeats.
			line := uint64(rng.Intn(6)) * mshrBuckets * cache.LineSize
			if rng.Intn(2) == 0 {
				line = uint64(rng.Intn(1<<12)) * cache.LineSize
			}
			if n, _ := u.mshrInFlight(now); n < len(u.mshrDone) {
				u.mshrInsert(line, now+1+uint64(rng.Intn(400)), now)
			}
			for _, at := range [...]uint64{now, clocks[0], clocks[1], clocks[2], clocks[3], now + 200, u.mshrMax} {
				for _, l := range [...]uint64{line, 0, mshrBuckets * cache.LineSize, line + cache.LineSize} {
					if d := checkMSHR(u, l, at); d != "" {
						t.Fatalf("seed %d booking %d: line %#x at %d: %s", seed, i, l, at, d)
					}
					if d1, ok := u.mshrLookup(l, at); ok {
						if d2, _, _ := u.mshrProbe(l, at); d1 != d2 {
							twice++
						}
					}
				}
			}
		}
		if twice == 0 {
			t.Errorf("seed %d: no line had two occupied slots: first and last match went untested", seed)
		}
	}
}

// TestResidencyBitmapMatchesProbe pins the uncore's map of LLC ways
// (llcWay, which also answers Resident) to the LLC's own set scan, and
// its filtered MSHR helpers to plain scans of the file. Seeded mixes of
// timed, functional and prefetch requests from several cores run through
// one uncore; after every call, the way llcWay records agrees with
// llc.Way, and the MSHR helpers with checkMSHR's scans, on every line
// touched or proposed so far. The mixes carry trained streams and
// strides whose proposals run past the last allocated page; odd seeds
// run an LRU LLC and even seeds a DRRIP one. Each demand call's proposals
// come from a twin prefetcher fed what the uncore's own is fed: the
// salted PC, the physical address and whether the call missed.
func TestResidencyBitmapMatchesProbe(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := ConfigFor(4, [...]cache.PolicyName{cache.DRRIP, cache.LRU}[seed%2])
		cfg.PolicySeed = seed
		cfg.LLCBytes = 64 << 10 // small, so the mixes evict
		u := MustNew(cfg)
		twin := cache.NewStrideStream(cfg.PrefetchDegree)
		var last []uint64 // the proposals of the latest demand call
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
			// Translating first allocates pages in the order Access would.
			paddr := u.Translate(core, vaddr)
			var miss bool
			if burst == 0 && rng.Intn(3) == 0 {
				miss = u.llc.Way(paddr) < 0
				u.AccessFunctional(core, pc, vaddr, write, prefetch)
			} else {
				miss = u.Access(core, pc, vaddr, write, prefetch, now) > now+cfg.LLCLatency
			}
			if !prefetch {
				last = append(last[:0], twin.Observe(pc^uint64(core)<<56, paddr, miss)...)
			}
			see(cache.AlignLine(paddr))
			for _, a := range last {
				if a/PageSize >= u.nextPage {
					pastEnd++
				}
				see(cache.AlignLine(a))
			}
			filledPastEnd = filledPastEnd || uint64(len(u.llcWay)) > u.nextPage*PageSize/cache.LineSize
			for _, l := range order {
				if got, want := u.way(l), u.llc.Way(l); got != want {
					t.Fatalf("seed %d call %d: line %#x in way %d by llcWay, %d in the LLC",
						seed, i, l, got, want)
				}
				for _, at := range [...]uint64{now, now + cfg.LLCLatency} {
					if d := checkMSHR(u, l, at); d != "" {
						t.Fatalf("seed %d call %d: line %#x at %d: %s", seed, i, l, at, d)
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
