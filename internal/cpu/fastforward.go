package cpu

import (
	"mcbench/internal/cache"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// functionalMemory is the optional uncore capability FastForward uses:
// a state-only access with no timing side effects. The real
// *uncore.Uncore implements it; stubs (e.g. FixedLatency) need not —
// they fall back to a timed access at the frozen clock, which for a
// stateless stub is equivalent.
type functionalMemory interface {
	AccessFunctional(core int, pc, vaddr uint64, write, prefetch bool)
}

// FastForward executes n µops in functional-warming mode: every
// microarchitectural *state* update of Step happens — IL1/DL1 and TLB
// contents, branch/target predictor tables, the RAS and shadow call
// stack, prefetcher training, and the shared hierarchy below the L1s —
// but none of the *timing* machinery (pipeline rings, issue slots,
// MSHR completion times, commit bandwidth, bus and DRAM bookings). The
// local clock does not advance, and Committed() still does, so drivers
// can position sampling windows by µop count.
//
// The point is SMARTS-style sampled simulation: fast-forward the gap
// between measurement windows under this cheap path, then run a short
// detailed warmup to refill the timing state before measuring. Uncore
// requests are not recorded (SetRecorder is a model-building concern
// of detailed runs), and queue/ring contents left behind by a prior
// detailed stretch are simply ignored — their stale times sit at or
// before the frozen clock, so the next detailed warmup restarts from
// an effectively drained pipeline.
func (c *Core) FastForward(n uint64) {
	fm, _ := c.mem.(functionalMemory)
	for k := uint64(0); k < n; k++ {
		c.ffStep(fm)
	}
}

// SyncClock advances the core's local clock (and front-end cycle) to at
// least t; it never moves time backwards. Sampled simulation calls it at
// each window start so all cores measure from a common time origin:
// per-core clocks drift apart across windows (frozen during the
// fast-forward, advancing by different amounts per window), but the
// shared uncore books its resources in absolute time, so a core whose
// clock lags the others would see the bus reserved far into its own
// future and pay the skew as fake queueing.
func (c *Core) SyncClock(t uint64) {
	if t > c.lastCommit {
		c.lastCommit = t
	}
	if t > c.fetchCycle {
		c.fetchCycle = t
		c.fetchInCycle = 0
	}
}

// Skip advances the core's trace position by n µops with no state
// updates at all — no cache, predictor, or prefetcher warming. It is
// the cheapest gap traversal for sampled simulation: O(1) whatever the
// distance, which is what makes the detailed work per sampling unit
// independent of trace length. The cost is staleness — every structure
// keeps the contents the last executed µop left — so drivers follow a
// skip with a bounded functional-warming stretch (FastForward) sized to
// re-establish recency in the caches before the detailed warmup runs.
// The shadow call stack is cleared (the skipped region's call structure
// is unknown); the RAS keeps its now-stale contents, as hardware would.
func (c *Core) Skip(n uint64) {
	c.seq += n
	p := uint64(c.pos) + n
	if l := uint64(c.tr.Len()); p >= l {
		p %= l
	}
	c.pos = int(p)
	c.haveILine = false
	c.shadowRAS = c.shadowRAS[:0]
}

// ffAccess issues one functional uncore access, falling back to a timed
// access at the frozen clock (result discarded) when the backend has no
// functional path.
func (c *Core) ffAccess(fm functionalMemory, pc, line uint64, write, prefetch bool) {
	if c.unc != nil {
		c.unc.AccessFunctional(c.id, pc, line, write, prefetch)
		return
	}
	if fm != nil {
		fm.AccessFunctional(c.id, pc, line, write, prefetch)
		return
	}
	c.mem.Access(c.id, pc, line, write, prefetch, c.lastCommit)
}

// ffStep functionally executes one µop. It mirrors Step's state-update
// order exactly (fetch side first, then the op's own accesses) so the
// warmed contents match what a detailed execution would have left,
// differing only where timing feeds back into state (MSHR-pressure
// prefetch drops, late-fill merges).
func (c *Core) ffStep(fm functionalMemory) {
	op := &c.tr.Ops[c.pos]

	// Instruction delivery: one IL1 access per new code line.
	if iline := op.ILine(); !c.haveILine || iline != c.lastILine {
		c.lastILine = iline
		c.haveILine = true
		line := codeBase + uint64(iline)*cache.LineSize
		c.itlb.lookup(line / uncore.PageSize)
		if !c.il1.AccessWay(line, c.il1Way(line), false) {
			c.ffAccess(fm, line, line, false, false)
			c.stats.UncoreDemand++
			c.il1.FillMiss(line, false, false)
		}
		next := line + cache.LineSize
		w := c.il1.Way(next)
		if w < 0 {
			c.ffAccess(fm, line, next, false, true)
			c.stats.UncorePref++
			w = c.il1.FillMiss(next, false, true).Way
		}
		c.nextILine, c.nextIWay = next, w
	}

	switch op.Kind {
	case trace.Branch:
		c.bp.Predict(op.PC, op.Taken)
	case trace.Call:
		if op.Indirect() {
			c.ind.Predict(op.PC)
			c.ind.Update(op.PC, op.Addr())
		} else {
			c.btac.Predict(op.PC)
			c.btac.Update(op.PC, op.Addr())
		}
		ret := op.PC + 16
		c.ras.Push(ret)
		c.shadowRAS = append(c.shadowRAS, ret)
	case trace.Ret:
		var want uint64
		if n := len(c.shadowRAS); n > 0 {
			want = c.shadowRAS[n-1]
			c.shadowRAS = c.shadowRAS[:n-1]
		}
		c.ras.Pop(want)
	case trace.Load:
		addr := op.Addr()
		c.dtlb.lookup(addr / uncore.PageSize)
		line := cache.AlignLine(addr)
		hit := c.dl1.Access(line, false)
		if !hit {
			c.ffFill(fm, op.PC, line, false)
		}
		c.ffPrefetchObserve(fm, op.PC, addr, !hit)
	case trace.Store:
		addr := op.Addr()
		c.dtlb.lookup(addr / uncore.PageSize)
		line := cache.AlignLine(addr)
		if !c.dl1.Access(line, true) {
			c.ffFill(fm, op.PC, line, true)
		}
		c.ffPrefetchObserve(fm, op.PC, addr, false)
	}

	c.seq++
	c.pos++
	if c.pos == c.tr.Len() {
		c.pos = 0
		// Thread restart: the architectural call stack starts empty again
		// (same semantics as Step).
		c.shadowRAS = c.shadowRAS[:0]
	}
}

// ffFill functionally services a DL1 miss: uncore access for the line,
// fill, and dirty-victim writeback — no MSHR booking.
func (c *Core) ffFill(fm functionalMemory, pc, line uint64, write bool) {
	c.ffAccess(fm, pc, line, write, false)
	c.stats.UncoreDemand++
	ev := c.dl1.FillMiss(line, write, false)
	if ev.Valid && ev.Dirty {
		c.ffAccess(fm, pc, ev.Addr, true, false)
		c.stats.UncoreDemand++
	}
}

// ffPrefetchObserve trains the DL1 prefetchers and functionally issues
// their proposals at the drop rate the detailed path exhibits.
//
// The detailed pipeline drops a proposal while half the DL1 MSHRs are
// busy — a timing decision the clockless functional path cannot
// reproduce (occupancy depends on fill latencies and burst overlap).
// Issuing every proposal instead warms the shared cache beyond what any
// timed execution reaches: measured windows then see as little as half
// the true LLC miss rate and overestimate IPC by tens of percent. So
// the detailed path counts its own pressure decisions (pfCand/pfIssued,
// maintained in dl1Prefetch), and the fast-forward replays that
// observed issue rate with a deterministic accumulator — the sampled
// run's warmup and measure phases keep the calibration current.
func (c *Core) ffPrefetchObserve(fm functionalMemory, pc, addr uint64, miss bool) {
	props := c.dpf.Observe(pc, addr, miss)
	if len(props) == 0 {
		return
	}
	rate := 1.0
	if c.pfCand > 0 {
		rate = float64(c.pfIssued) / float64(c.pfCand)
	}
	// props is the prefetcher's reused buffer, which nothing below
	// refills (see dl1PrefetchObserve).
	for _, a := range props {
		line := cache.AlignLine(a)
		if c.dl1.Probe(line) {
			continue
		}
		c.ffPfAcc += rate
		if c.ffPfAcc < 1 {
			continue
		}
		c.ffPfAcc--
		c.ffAccess(fm, pc, line, false, true)
		c.stats.UncorePref++
		ev := c.dl1.FillMiss(line, false, true)
		if ev.Valid && ev.Dirty {
			c.ffAccess(fm, pc, ev.Addr, true, false)
			c.stats.UncoreDemand++
		}
	}
}
