// Package uncore models the shared part of the simulated CMP: the
// last-level cache with its replacement policy, MSHRs, write buffer and
// prefetchers, the front-side bus and the DRAM (Table II of the paper).
//
// Both the detailed core model (package cpu) and the approximate BADCO
// machines (package badco) drive the exact same uncore, as in the paper.
package uncore

import (
	"fmt"
	"math"
	"math/bits"

	"mcbench/internal/cache"
	"mcbench/internal/mem"
)

// Memory is the interface cores use to talk to the memory hierarchy below
// their private L1 caches. All times are core cycles.
type Memory interface {
	// Access services a request from core for the line containing vaddr,
	// issued at time now. pc is the requesting instruction address (used
	// by prefetchers), write marks stores/RFOs and prefetch marks
	// speculative requests. It returns the completion time.
	Access(core int, pc, vaddr uint64, write, prefetch bool, now uint64) uint64
}

// PageSize is the virtual memory page size (4 kB, Table I).
const PageSize = 4096

// Config describes one uncore instance.
type Config struct {
	Cores          int
	LLCBytes       int
	LLCWays        int
	LLCLatency     uint64 // hit latency in core cycles
	MSHRs          int    // outstanding misses (16 in the paper)
	WriteBufEnts   int    // LLC write buffer entries (8 in the paper)
	DRAMLatency    uint64 // core cycles (200 in the paper)
	Bus            mem.BusConfig
	Policy         cache.PolicyName
	PolicySeed     int64
	PrefetchDegree int // degree of the LLC stride/stream prefetchers
}

// ConfigFor returns the Table II uncore for the given core count (1 core
// shares the 2-core sizing) and replacement policy.
//
// LLC capacities are scaled to 1/4 of the paper's (256 kB / 512 kB / 1 MB
// for 2 / 4 / 8 cores) to match the 10⁻³ trace-length scaling: a 100 k-µop
// trace touches ~10⁻¹ of the data footprint a 100 M-instruction run
// would, so a proportionally smaller LLC preserves the paper's capacity
// pressure — which is what differentiates replacement policies.
// Latencies, associativity, MSHRs and the write buffer keep the paper's
// values.
func ConfigFor(cores int, policy cache.PolicyName) Config {
	cfg := Config{
		Cores:          cores,
		LLCWays:        16,
		MSHRs:          16,
		WriteBufEnts:   8,
		DRAMLatency:    200,
		Bus:            mem.DefaultBusConfig(),
		Policy:         policy,
		PolicySeed:     12345,
		PrefetchDegree: 2,
	}
	switch {
	case cores <= 2:
		cfg.LLCBytes = 256 << 10
		cfg.LLCLatency = 5
	case cores <= 4:
		cfg.LLCBytes = 512 << 10
		cfg.LLCLatency = 6
	default:
		cfg.LLCBytes = 1 << 20
		cfg.LLCLatency = 7
	}
	return cfg
}

// Stats aggregates uncore activity.
type Stats struct {
	Requests       uint64 // demand requests received
	DemandMisses   uint64 // demand requests that missed the LLC
	PrefetchIssued uint64 // prefetch requests sent to memory
	Writebacks     uint64 // dirty lines written back
	LLC            cache.Stats
	BusBusyCycles  uint64
	DRAMRequests   uint64
}

// Uncore is the shared LLC + bus + DRAM assembly.
type Uncore struct {
	cfg  Config
	llc  *cache.Cache
	bus  *mem.Bus
	dram *mem.DRAM
	// pref is the LLC's IP-stride + stream pairing, trained on the
	// demand stream.
	pref  *cache.StrideStreamPrefetcher
	stats Stats

	// The MSHR file: fixed parallel arrays of in-flight fills (line
	// address and completion time per slot), so each scan walks one dense
	// strip of words. A slot whose completion time is at or before "now"
	// is free. The fixed arrays keep the hot path free of map traffic.
	// "now" is the requesting core's clock, and the cores' clocks differ,
	// so a slot free at one core's now may be live at another's.
	mshrLine []uint64
	mshrDone []uint64
	// mshrLast is, per bucket of lines (see mshrBucket), the latest
	// completion time ever booked for a line in it: no fill of a line in
	// the bucket is in flight at or after it, so a lookup whose now has
	// reached it skips the scan.
	mshrLast [mshrBuckets]uint64

	// MSHR-pressure prefetch-drop calibration (see prefetchFunctional):
	// the timed path counts proposals reaching its pressure check and
	// those that issue; the functional path replays the observed rate
	// through the ffPfAcc accumulator.
	pfCand   uint64
	pfIssued uint64
	ffPfAcc  float64
	// mshrMax is the latest completion time ever booked: once "now"
	// passes it the file is provably empty, and the lookup scans (which
	// run on every LLC hit) short-circuit.
	mshrMax uint64

	// writeBuf holds the drain-completion times of in-flight writebacks.
	writeBuf []uint64

	// pageTables give each core its own virtual address space; pages are
	// allocated from a global bump allocator on first touch, so identical
	// benchmarks on different cores use distinct physical lines.
	pageTables []map[uint64]uint64
	nextPage   uint64

	// xlat is a per-core direct-mapped translation cache in front of the
	// page tables (page-level locality makes it hit most of the time,
	// keeping map lookups off the hot path). It is a pure memo: physical
	// pages are still allocated by the bump allocator in first-touch
	// order, so results are unchanged. Row-major by core.
	xlat []xlatEntry

	// llcWay maps each physical line number to 1 + the LLC way holding
	// the line, or 0 while the line is not in the LLC. The uncore is the
	// LLC's only writer and keeps it in step through fill; demand
	// accesses hand the way to llc.AccessWay, which then skips the set
	// scan, and prefetches test residency on it. It grows with the lines
	// filled, not with the allocated pages, because prefetch proposals
	// may point past the last allocated page; a line beyond its end is
	// not resident.
	llcWay []uint8
}

// mshrBuckets is the number of MSHR line-tag buckets (a power of two).
const mshrBuckets = 64

// mshrBucket returns line's bucket in mshrLast.
func mshrBucket(line uint64) int { return int(line/cache.LineSize) & (mshrBuckets - 1) }

// xlatEntries is the per-core translation-cache size (a power of two).
const xlatEntries = 512

// xlatEntry is one cached vpage -> ppage translation.
type xlatEntry struct {
	vpage uint64 // vpage+1, so zero means empty
	ppage uint64
}

// New builds an uncore from cfg.
func New(cfg Config) (*Uncore, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("uncore: %d cores", cfg.Cores)
	}
	if cfg.MSHRs <= 0 || cfg.WriteBufEnts <= 0 {
		return nil, fmt.Errorf("uncore: MSHRs/write buffer must be positive")
	}
	if cfg.LLCWays > math.MaxUint8 { // llcWay stores way+1 in a byte
		return nil, fmt.Errorf("uncore: %d LLC ways, at most %d", cfg.LLCWays, math.MaxUint8)
	}
	pol, err := cache.NewPolicy(cfg.Policy, cfg.PolicySeed)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New("LLC", cfg.LLCBytes, cfg.LLCWays, pol)
	if err != nil {
		return nil, err
	}
	bus, err := mem.NewBus(cfg.Bus)
	if err != nil {
		return nil, err
	}
	tables := make([]map[uint64]uint64, cfg.Cores)
	for i := range tables {
		tables[i] = make(map[uint64]uint64)
	}
	u := &Uncore{
		cfg:        cfg,
		llc:        llc,
		bus:        bus,
		dram:       mem.NewDRAM(cfg.DRAMLatency),
		pref:       cache.NewStrideStream(cfg.PrefetchDegree),
		mshrLine:   make([]uint64, cfg.MSHRs),
		mshrDone:   make([]uint64, cfg.MSHRs),
		writeBuf:   make([]uint64, 0, cfg.WriteBufEnts),
		pageTables: tables,
		nextPage:   1, // keep physical page 0 unused
		xlat:       make([]xlatEntry, cfg.Cores*xlatEntries),
	}
	return u, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Uncore {
	u, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// ResetStats zeroes the event counters without touching cache or MSHR
// state, so steady-state rates can be measured after a warm-up period.
func (u *Uncore) ResetStats() {
	u.stats = Stats{}
	u.llc.ResetStats()
}

// Stats returns a snapshot of the uncore counters.
func (u *Uncore) Stats() Stats {
	s := u.stats
	s.LLC = u.llc.Stats()
	s.BusBusyCycles = u.bus.BusyCycles()
	s.DRAMRequests = u.dram.Requests()
	return s
}

// Translate maps a core-local virtual address to a physical address,
// allocating a fresh physical page on first touch.
func (u *Uncore) Translate(core int, vaddr uint64) uint64 {
	e, paddr, ok := u.xlatLookup(core, vaddr)
	if !ok {
		paddr = u.translateSlow(core, vaddr, e)
	}
	return paddr
}

// xlatLookup is Translate's hit path: it returns core's translation-cache
// entry for vaddr's page, the physical address the entry gives, and
// whether the entry holds that page. It sits on every simulated memory
// access and is small enough to inline where Translate (the page-table
// fallback drags it over the inlining budget) is not.
func (u *Uncore) xlatLookup(core int, vaddr uint64) (e *xlatEntry, paddr uint64, ok bool) {
	vpage := vaddr / PageSize
	e = &u.xlat[core*xlatEntries+int(vpage&(xlatEntries-1))]
	// +1 in the cache tags distinguishes "page 0" from "empty".
	return e, e.ppage*PageSize + vaddr%PageSize, e.vpage == vpage+1
}

// translateSlow is the translation-cache miss path: consult the page
// table, allocating a fresh physical page on first touch, and refill the
// cache entry e.
func (u *Uncore) translateSlow(core int, vaddr uint64, e *xlatEntry) uint64 {
	vpage := vaddr / PageSize
	pt := u.pageTables[core]
	ppage, ok := pt[vpage]
	if !ok {
		ppage = u.nextPage
		u.nextPage++
		pt[vpage] = ppage
	}
	e.vpage, e.ppage = vpage+1, ppage
	return ppage*PageSize + vaddr%PageSize
}

// mshrLookup returns the completion time of an in-flight fill of line, if
// any.
func (u *Uncore) mshrLookup(line, now uint64) (uint64, bool) {
	if now >= u.mshrLast[mshrBucket(line)] {
		return 0, false
	}
	for i, l := range u.mshrLine {
		if l == line {
			if done := u.mshrDone[i]; done > now {
				return done, true
			}
		}
	}
	return 0, false
}

// live is 1 if a slot completing at done is occupied at now, else 0,
// without a branch: now-done borrows exactly when done > now.
func live(done, now uint64) uint64 {
	_, borrow := bits.Sub64(now, done, 0)
	return borrow
}

// mshrInFlight counts occupied MSHRs and returns the earliest completion
// among them (0 if none).
func (u *Uncore) mshrInFlight(now uint64) (count int, earliest uint64) {
	if now >= u.mshrMax {
		return 0, 0
	}
	earliest = ^uint64(0)
	n := uint64(0)
	for _, done := range u.mshrDone {
		l := live(done, now)
		n += l
		// A free slot's time becomes the maximum, which no live one beats.
		earliest = min(earliest, done|(l-1))
	}
	if n == 0 {
		earliest = 0
	}
	return int(n), earliest
}

// mshrProbe returns the completion time of an in-flight fill of line
// and the number of occupied MSHRs. At an early core's now, two slots
// can hold fills of one line (booked at a later core's now, the second
// after the first had completed there); the probe then returns the
// higher slot's, where mshrLookup returns the lower slot's.
func (u *Uncore) mshrProbe(line, now uint64) (done uint64, ok bool, count int) {
	if now >= u.mshrMax {
		return 0, false, 0
	}
	n := uint64(0)
	for _, d := range u.mshrDone {
		n += live(d, now)
	}
	if now < u.mshrLast[mshrBucket(line)] {
		for i, l := range u.mshrLine {
			if l == line && u.mshrDone[i] > now {
				done, ok = u.mshrDone[i], true
			}
		}
	}
	return done, ok, int(n)
}

// mshrInsert books a slot for a fill completing at done. A free (expired)
// slot must exist; callers ensure capacity beforehand.
func (u *Uncore) mshrInsert(line, done, now uint64) {
	u.mshrMax = max(u.mshrMax, done)
	b := mshrBucket(line)
	u.mshrLast[b] = max(u.mshrLast[b], done)
	for i, d := range u.mshrDone {
		if d <= now {
			u.mshrLine[i], u.mshrDone[i] = line, done
			return
		}
	}
	// No free slot: replace the earliest-completing entry (only reachable
	// through pathological caller misuse; keeps the model robust).
	min := 0
	for i := 1; i < len(u.mshrDone); i++ {
		if u.mshrDone[i] < u.mshrDone[min] {
			min = i
		}
	}
	u.mshrLine[min], u.mshrDone[min] = line, done
}

// Resident reports whether the line holding the physical address paddr
// is in the LLC, as llc.Probe would, from llcWay. A
// prefetch of a resident line changes no state and no counter (see
// prefetchAccess), so a caller that already holds the physical address
// may skip such a prefetch outright.
func (u *Uncore) Resident(paddr uint64) bool { return u.way(paddr) >= 0 }

// way returns the LLC way holding the line of paddr, or -1 if it is not
// in the LLC.
func (u *Uncore) way(paddr uint64) int {
	if l := paddr / cache.LineSize; l < uint64(len(u.llcWay)) {
		return int(u.llcWay[l]) - 1
	}
	return -1
}

// fill installs line, which llcWay shows absent, in the LLC and keeps
// llcWay in step: the filled line's way is recorded and the victim's,
// if any, cleared.
func (u *Uncore) fill(line uint64, write, prefetch bool) cache.Eviction {
	ev := u.llc.FillMiss(line, write, prefetch)
	if ev.Valid {
		u.llcWay[ev.Addr/cache.LineSize] = 0
	}
	l := line / cache.LineSize
	if l >= uint64(len(u.llcWay)) {
		u.llcWay = append(u.llcWay, make([]uint8, l+1-uint64(len(u.llcWay)))...)
	}
	u.llcWay[l] = uint8(ev.Way + 1)
	return ev
}

// Access implements Memory: it translates vaddr for core and issues the
// request through AccessPhysical.
func (u *Uncore) Access(core int, pc, vaddr uint64, write, prefetch bool, now uint64) uint64 {
	if core < 0 || core >= u.cfg.Cores {
		panic(fmt.Sprintf("uncore: core %d out of range", core))
	}
	// Translate, with its hit path inlined.
	e, paddr, ok := u.xlatLookup(core, vaddr)
	if !ok {
		paddr = u.translateSlow(core, vaddr, e)
	}
	return u.AccessPhysical(core, pc, paddr, write, prefetch, now)
}

// AccessPhysical is Access for a request whose address core has
// already translated: paddr is what Translate(core, vaddr) returned. A
// replay that memoizes its translations calls it to skip the
// translation cache; Translate allocates pages on first touch, so the
// caller must translate in the order Access would have.
func (u *Uncore) AccessPhysical(core int, pc, paddr uint64, write, prefetch bool, now uint64) uint64 {
	if core < 0 || core >= u.cfg.Cores {
		panic(fmt.Sprintf("uncore: core %d out of range", core))
	}
	line := cache.AlignLine(paddr)

	var done uint64
	if prefetch {
		done = u.prefetchAccess(line, now)
	} else {
		u.stats.Requests++
		done = u.demandAccess(line, write, now)
		// Train the LLC prefetchers on the demand stream. Proposals are
		// issued as speculative fills through the same path. The PC is
		// salted with the core id at bit 56, which keeps the cores'
		// IP-stride tags apart but not their entries: the table index
		// (pc ^ pc>>8) % 256 drops the salt, so cores running the same
		// PC evict each other's entry. The proposals are read straight
		// from the prefetcher's reused buffer: prefetchAccess never
		// calls Observe, so nothing overwrites the buffer while it is
		// read. The pairing ignores the miss flag.
		for _, a := range u.pref.Observe(pc^uint64(core)<<56, paddr, false) {
			u.prefetchAccess(cache.AlignLine(a), now)
		}
	}
	return done
}

// demandAccess performs a demand lookup and, on a miss, schedules the
// memory fill. It returns the request completion time.
func (u *Uncore) demandAccess(line uint64, write bool, now uint64) uint64 {
	hitTime := now + u.cfg.LLCLatency
	if u.llc.AccessWay(line, u.way(line), write) {
		// The line's state is installed at schedule time, so a "hit" may
		// be on a still-in-flight fill (e.g. a late prefetch): the data
		// is only usable once the fill completes.
		if done, ok := u.mshrLookup(line, hitTime); ok {
			return done
		}
		return hitTime
	}
	u.stats.DemandMisses++
	// Merge into an in-flight fill of the same line.
	if done, ok := u.mshrLookup(line, now); ok {
		if done < hitTime {
			return hitTime
		}
		return done
	}
	return u.scheduleFill(line, write, false, hitTime)
}

// prefetchAccess issues a speculative fill if the line is neither resident
// nor in flight and an MSHR is free. Prefetches are dropped rather than
// stalled when resources are exhausted.
//
// Residency is read from llcWay, not from the LLC's sets: most
// prefetches (BADCO's satellites and trained streams re-proposing the
// lines they just fetched) find the line resident and are no-ops, and
// one byte load is cheaper than a 16-way set scan.
func (u *Uncore) prefetchAccess(line uint64, now uint64) uint64 {
	if u.Resident(line) {
		return now + u.cfg.LLCLatency
	}
	return u.prefetchMiss(line, now)
}

// prefetchMiss is the non-resident tail of prefetchAccess.
func (u *Uncore) prefetchMiss(line, now uint64) uint64 {
	done, ok, count := u.mshrProbe(line, now)
	if ok {
		return done
	}
	// Prefetches only use spare MSHR capacity: they are dropped rather
	// than allowed to starve demand misses. The candidate/issued counts
	// calibrate the functional path's replay of this drop rate.
	u.pfCand++
	if count >= u.cfg.MSHRs/2 {
		return now // dropped
	}
	u.pfIssued++
	u.stats.PrefetchIssued++
	return u.scheduleFill(line, false, true, now+u.cfg.LLCLatency)
}

// scheduleFill books the bus and DRAM for a miss and installs the line at
// completion time. start is the earliest cycle the request may leave the
// LLC (post-lookup).
func (u *Uncore) scheduleFill(line uint64, write, prefetch bool, start uint64) uint64 {
	// MSHR capacity: a full file delays the request until an entry frees.
	// A prefetch never waits: prefetchMiss found fewer than half the
	// MSHRs occupied at now, and start is later, so fewer still are.
	if !prefetch {
		if count, earliest := u.mshrInFlight(start); count >= u.cfg.MSHRs {
			if earliest > start {
				start = earliest
			}
		}
	}
	_, cmdDone := u.bus.TransferCommand(start)
	dramDone := u.dram.Access(cmdDone)
	_, dataDone := u.bus.TransferLine(dramDone)
	u.mshrInsert(line, dataDone, start)

	ev := u.fill(line, write, prefetch)
	if ev.Valid && ev.Dirty {
		u.scheduleWriteback(dataDone)
	}
	return dataDone
}

// scheduleWriteback drains a dirty victim through the write buffer. A full
// buffer back-pressures by queueing behind its earliest drain.
func (u *Uncore) scheduleWriteback(now uint64) {
	u.stats.Writebacks++
	// Drop drained entries so the buffer tracks only in-flight drains.
	keep := u.writeBuf[:0]
	for _, done := range u.writeBuf {
		if done > now {
			keep = append(keep, done)
		}
	}
	u.writeBuf = keep
	start := now
	if len(u.writeBuf) >= u.cfg.WriteBufEnts {
		earliest := u.writeBuf[0]
		idx := 0
		for i, t := range u.writeBuf {
			if t < earliest {
				earliest, idx = t, i
			}
		}
		if earliest > start {
			start = earliest
		}
		u.writeBuf = append(u.writeBuf[:idx], u.writeBuf[idx+1:]...)
	}
	_, done := u.bus.TransferLine(start)
	u.writeBuf = append(u.writeBuf, done)
}

// FixedLatency is a Memory stub that services every request in a constant
// number of cycles. It is used to build BADCO models (two calibration runs
// at different latencies) and in unit tests.
type FixedLatency struct {
	Lat uint64
	N   uint64 // requests served
}

// Access implements Memory.
func (f *FixedLatency) Access(_ int, _, _ uint64, _, _ bool, now uint64) uint64 {
	f.N++
	return now + f.Lat
}
