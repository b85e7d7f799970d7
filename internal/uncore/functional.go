package uncore

import (
	"fmt"

	"mcbench/internal/cache"
)

// AccessFunctional is the functional-warming form of Access: it updates
// every piece of *state* — address translation, LLC contents and
// replacement metadata, prefetcher training and speculative fills,
// event counters — but books no timing resource (bus, DRAM, MSHRs,
// write buffer) and returns no completion time. Sampled simulation
// fast-forwards trace gaps through it so the shared hierarchy stays
// warm without pushing the timed resources' bookings into the future,
// which would poison the next measured window: the bus books free
// times monotonically, so timed accesses at a frozen clock would queue
// the whole gap's traffic in front of the measurement.
func (u *Uncore) AccessFunctional(core int, pc, vaddr uint64, write, prefetch bool) {
	if core < 0 || core >= u.cfg.Cores {
		panic(fmt.Sprintf("uncore: core %d out of range", core))
	}
	// Translate, with its hit path inlined.
	e, paddr, ok := u.xlatLookup(core, vaddr)
	if !ok {
		paddr = u.translateSlow(core, vaddr, e)
	}
	line := cache.AlignLine(paddr)
	if prefetch {
		u.prefetchFunctional(line)
		return
	}
	u.stats.Requests++
	if !u.llc.AccessWay(line, u.way(line), write) {
		u.stats.DemandMisses++
		u.fillFunctional(line, write, false)
	}
	// Train the LLC prefetchers on the demand stream, exactly as the
	// timed path does (PC salted with the core id, which separates the
	// cores' IP-stride tags but not their table entries; proposals read
	// from the prefetcher's buffer, which prefetchFunctional never
	// refills; the pairing ignores the miss flag).
	for _, a := range u.pref.Observe(pc^uint64(core)<<56, paddr, false) {
		u.prefetchFunctional(cache.AlignLine(a))
	}
}

// prefetchFunctional installs a speculative fill if the line is not
// resident, replaying the timed path's MSHR-pressure drop rate: the
// timed prefetchMiss counts the proposals reaching its pressure check
// and those that issue, and the functional path issues at that observed
// ratio through a deterministic accumulator (see the cpu package's
// ffPrefetchObserve for the full reasoning). With no drop model at all,
// functional warming leaves the LLC warmer than any timed execution,
// and measured windows overestimate IPC by tens of percent.
func (u *Uncore) prefetchFunctional(line uint64) {
	if u.Resident(line) {
		return
	}
	rate := 1.0
	if u.pfCand > 0 {
		rate = float64(u.pfIssued) / float64(u.pfCand)
	}
	u.ffPfAcc += rate
	if u.ffPfAcc < 1 {
		return
	}
	u.ffPfAcc--
	u.stats.PrefetchIssued++
	u.fillFunctional(line, false, true)
}

// fillFunctional installs a line and counts (but does not schedule) the
// dirty-victim writeback.
func (u *Uncore) fillFunctional(line uint64, write, prefetch bool) {
	ev := u.fill(line, write, prefetch)
	if ev.Valid && ev.Dirty {
		u.stats.Writebacks++
	}
}
