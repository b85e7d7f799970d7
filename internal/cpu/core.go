package cpu

import (
	"fmt"

	"mcbench/internal/bpred"
	"mcbench/internal/cache"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// ring is the power-of-two window for per-µop time bookkeeping; it must
// be at least as large as the biggest structural window (the ROB).
const ring = 256

// issueSlots is the power-of-two cycle-ring used to enforce issue
// bandwidth; slots are tagged with their cycle so arbitrarily distant
// cycles can share the ring.
const issueSlots = 1 << 15

// RequestKind distinguishes the uncore request sources.
type RequestKind uint8

// Request sources.
const (
	ReqData  RequestKind = iota // DL1 demand miss
	ReqInstr                    // IL1 demand miss
	ReqWB                       // DL1 dirty-line writeback
)

// UncoreRequest is one request the core sent below its L1s. Recordings of
// these (see SetRecorder) are the raw material for BADCO model building.
type UncoreRequest struct {
	OpIndex  int    // position in the trace of the µop that caused it
	VAddr    uint64 // virtual line address
	PC       uint64 // requesting instruction address
	Kind     RequestKind
	Write    bool
	Prefetch bool
	Issue    uint64 // cycle the request left the core
	Complete uint64 // cycle the data returned
}

// Stats summarises one core's execution.
type Stats struct {
	Committed     uint64
	Cycles        uint64
	UncoreDemand  uint64 // demand requests sent to the uncore
	UncorePref    uint64 // prefetch requests sent to the uncore
	DL1           cache.Stats
	IL1           cache.Stats
	BranchMisses  uint64
	BranchLookups uint64
	TargetMisses  uint64 // BTAC + indirect + RAS target mispredictions
	DTLBMisses    uint64
	ITLBMisses    uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// CPI returns cycles per committed instruction.
func (s Stats) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// Core is a detailed out-of-order core bound to one trace and one memory
// hierarchy.
type Core struct {
	id  int
	cfg Config
	tr  *trace.Trace
	mem uncore.Memory

	il1  *cache.Cache
	dl1  *cache.Cache
	itlb *tlb
	dtlb *tlb
	bp   bpred.Predictor
	btac *bpred.BTAC
	ind  *bpred.Indirect
	ras  *bpred.RAS
	dpf  *cache.StrideNextPrefetcher // DL1 prefetcher (ip-stride + next-line)
	ipf  cache.Prefetcher            // IL1 prefetcher (next-line)

	// shadowRAS is the architectural call stack (ground truth for return
	// targets); the 16-entry ras above is the predictor being modelled.
	shadowRAS []uint64

	pos int    // next op in the trace
	seq uint64 // µops executed across restarts

	// Per-µop time rings indexed by seq%ring.
	issueT    [ring]uint64
	completeT [ring]uint64
	commitT   [ring]uint64

	// Load/store queue completion rings indexed by per-kind sequence.
	loadSeq   uint64
	storeSeq  uint64
	loadDone  [64]uint64 // LDQ frees at load completion
	storeDone [32]uint64 // STQ frees at store commit

	// Fetch state.
	fetchCycle   uint64
	fetchInCycle int
	redirectAt   uint64
	lastILine    uint32
	haveILine    bool

	// Issue bandwidth booking: one packed word per slot, the cycle tag in
	// the high 60 bits and the booked count in the low 4 (IssueWidth is
	// far below 16), so probing a slot touches one cache line, not two
	// parallel arrays.
	slots [issueSlots]uint64

	// Commit bandwidth.
	lastCommit     uint64
	lastCommitCyc  uint64
	commitsInCycle int

	// DL1 MSHRs: a fixed array of in-flight fills (line address -> fill
	// completion), scanned linearly like the uncore's MSHR file — the
	// fixed array keeps the hot path free of map traffic. The first
	// dl1MissN entries are live; as with the map this replaced, expired
	// entries linger until a pruneDL1 call, and all operations are
	// order-independent, so swap-removal preserves the exact semantics.
	dl1Miss  [maxDL1MSHRs]mshrEntry
	dl1MissN int

	// MSHR-pressure prefetch-drop calibration (see ffPrefetchObserve):
	// the detailed path counts proposals reaching its pressure check and
	// those that issue; the fast-forward replays the observed rate
	// through the ffPfAcc accumulator.
	pfCand   uint64
	pfIssued uint64
	ffPfAcc  float64

	// pfBuf detaches DL1 prefetch proposals from the prefetcher's reused
	// buffer before they are issued (dl1Prefetch feeds the uncore, whose
	// own prefetchers have their own buffers, so pfBuf is never reused
	// re-entrantly).
	pfBuf []uint64

	stats    Stats
	recorder *[]UncoreRequest
}

// maxDL1MSHRs bounds Config.DL1MSHRs so the MSHR file can be a fixed
// array inside Core.
const maxDL1MSHRs = 64

// mshrEntry is one in-flight DL1 fill.
type mshrEntry struct {
	line uint64
	done uint64
}

// New builds a core with the given id, executing tr against mem.
func New(id int, cfg Config, tr *trace.Trace, mem uncore.Memory) (*Core, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("cpu: empty trace")
	}
	if mem == nil {
		return nil, fmt.Errorf("cpu: nil memory")
	}
	if cfg.ROB > ring {
		return nil, fmt.Errorf("cpu: ROB %d exceeds window limit %d", cfg.ROB, ring)
	}
	if cfg.LDQ > len((&Core{}).loadDone) || cfg.STQ > len((&Core{}).storeDone) {
		return nil, fmt.Errorf("cpu: LDQ/STQ exceed ring sizes")
	}
	if cfg.DL1MSHRs > maxDL1MSHRs {
		return nil, fmt.Errorf("cpu: DL1MSHRs %d exceeds MSHR file size %d", cfg.DL1MSHRs, maxDL1MSHRs)
	}
	if cfg.IssueWidth >= 16 {
		return nil, fmt.Errorf("cpu: IssueWidth %d exceeds issue-slot count field", cfg.IssueWidth)
	}
	il1, err := cache.New("IL1", cfg.IL1Bytes, cfg.IL1Ways, cache.NewLRUPolicy())
	if err != nil {
		return nil, err
	}
	dl1, err := cache.New("DL1", cfg.DL1Bytes, cfg.DL1Ways, cache.NewLRUPolicy())
	if err != nil {
		return nil, err
	}
	kind := cfg.Predictor
	if kind == "" {
		kind = bpred.Bimodal
	}
	bp, err := bpred.New(kind, cfg.BPIndexBits, cfg.BPHistoryBits)
	if err != nil {
		return nil, err
	}
	ras := cfg.RASEntries
	if ras <= 0 {
		ras = 16
	}
	btacEnts := cfg.BTACEntries
	if btacEnts <= 0 {
		btacEnts = 512
	}
	return &Core{
		id:   id,
		cfg:  cfg,
		tr:   tr,
		mem:  mem,
		il1:  il1,
		dl1:  dl1,
		itlb: newTLB(cfg.ITLBEntries),
		dtlb: newTLB(cfg.DTLBEntries),
		bp:   bp,
		btac: bpred.NewBTAC(btacEnts, 4),
		ind:  bpred.DefaultIndirect(),
		ras:  bpred.NewRAS(ras),
		dpf:  cache.NewStrideNext(cfg.PrefetchDegree, true),
		// The IL1 next-line prefetcher fires on every access so that
		// sequential code fetch stays ahead of demand.
		ipf:   cache.NewNextLine(false),
		pfBuf: make([]uint64, 0, 8),
	}, nil
}

// MustNew is New for known-good arguments.
func MustNew(id int, cfg Config, tr *trace.Trace, mem uncore.Memory) *Core {
	c, err := New(id, cfg, tr, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// SetRecorder directs the core to append every uncore request it issues
// to dst. Pass nil to stop recording.
func (c *Core) SetRecorder(dst *[]UncoreRequest) { c.recorder = dst }

// Committed returns the number of µops committed so far.
func (c *Core) Committed() uint64 { return c.seq }

// Now returns the core's local clock: the commit time of the last µop.
// The multicore driver steps the core with the smallest Now.
func (c *Core) Now() uint64 { return c.lastCommit }

// Cycles returns the commit cycle of the last committed µop.
func (c *Core) Cycles() uint64 { return c.lastCommit }

// Stats returns a snapshot of the core's statistics.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Committed = c.seq
	s.Cycles = c.lastCommit
	s.DL1 = c.dl1.Stats()
	s.IL1 = c.il1.Stats()
	bs := c.bp.Stats()
	s.BranchMisses = bs.Misses
	s.BranchLookups = bs.Lookups
	s.TargetMisses = c.btac.Stats().Misses + c.ind.Stats().Misses + c.ras.Stats().Misses
	s.DTLBMisses = c.dtlb.misses
	s.ITLBMisses = c.itlb.misses
	return s
}

// Step executes one µop; the trace wraps around at the end (thread
// restart semantics). It returns the op's commit time.
func (c *Core) Step() uint64 {
	op := &c.tr.Ops[c.pos]
	i := c.seq

	fetch := c.fetch(op, i)
	issue := c.issue(op, i, fetch)
	complete := c.execute(op, issue)

	switch op.Kind {
	case trace.Branch:
		if predicted := c.bp.Predict(op.PC, op.Taken); predicted != op.Taken {
			c.redirectAt = complete + c.cfg.MispredictPenalty
		}
	case trace.Call:
		c.doCall(op, complete)
	case trace.Ret:
		c.doReturn(complete)
	}

	commit := c.commit(complete)

	c.issueT[i%ring] = issue
	c.completeT[i%ring] = complete
	c.commitT[i%ring] = commit
	switch op.Kind {
	case trace.Load:
		c.loadDone[c.loadSeq%uint64(len(c.loadDone))] = complete
		c.loadSeq++
	case trace.Store:
		c.storeDone[c.storeSeq%uint64(len(c.storeDone))] = commit
		c.storeSeq++
	}

	c.seq++
	c.pos++
	if c.pos == c.tr.Len() {
		c.pos = 0
		// Thread restart: the architectural call stack starts empty again.
		// The RAS keeps its (now stale) contents, as hardware would.
		c.shadowRAS = c.shadowRAS[:0]
	}
	return commit
}

// StepUntil executes µops until the local clock reaches limit or the
// committed count reaches quota, whichever comes first, and returns the
// number of µops executed. It is the batch form of Step used by the
// multicore driver: because Now is nondecreasing and the other cores'
// clocks cannot change while this core runs, stepping until the clock
// reaches the runner-up core's clock reproduces the per-step
// smallest-clock-first schedule exactly, with one dispatch per batch.
func (c *Core) StepUntil(limit, quota uint64) (steps uint64) {
	for c.lastCommit < limit && c.seq < quota {
		c.Step()
		steps++
	}
	return steps
}

// fetch computes the cycle the µop leaves the front end.
func (c *Core) fetch(op *trace.Op, i uint64) uint64 {
	// New decode group when the current cycle's slots are exhausted.
	if c.fetchInCycle >= c.cfg.DecodeWidth {
		c.fetchCycle++
		c.fetchInCycle = 0
	}
	ft := c.fetchCycle
	if c.redirectAt > ft {
		ft = c.redirectAt
	}
	// ROB occupancy: the op cannot enter until op i-ROB has committed.
	if i >= uint64(c.cfg.ROB) {
		if t := c.commitT[(i-uint64(c.cfg.ROB))%ring]; t > ft {
			ft = t
		}
	}
	// Instruction delivery: one IL1 access per new code line.
	if iline := op.ILine(); !c.haveILine || iline != c.lastILine {
		c.lastILine = iline
		c.haveILine = true
		line := codeBase + uint64(iline)*cache.LineSize
		ft = c.instrFetch(line, line, ft)
	}
	if ft > c.fetchCycle {
		c.fetchCycle = ft
		c.fetchInCycle = 0
	}
	c.fetchInCycle++
	return c.fetchCycle
}

// codeBase is the virtual base address of the synthetic code segment,
// disjoint from the trace generator's data regions.
const codeBase = 0x10000000

// instrFetch models ITLB + IL1 access at cycle t, returning when the
// instruction bytes are available. Sequential IL1 hits are fully
// pipelined and do not stall the front end; only misses (and TLB walks)
// do.
func (c *Core) instrFetch(pc, line uint64, t uint64) uint64 {
	if !c.itlb.lookup(pc / uncore.PageSize) {
		t += c.cfg.TLBWalkLat
	}
	hit := c.il1.Access(line, false)
	if !hit {
		miss := t + c.cfg.IL1Lat
		done := c.mem.Access(c.id, pc, line, false, false, miss)
		c.record(UncoreRequest{OpIndex: c.pos, VAddr: line, PC: pc, Kind: ReqInstr, Issue: miss, Complete: done})
		c.stats.UncoreDemand++
		c.il1.Fill(line, false, false)
		t = done
	}
	for _, a := range c.ipf.Observe(pc, line, !hit) {
		c.il1Prefetch(pc, a, t)
	}
	return t
}

// il1Prefetch issues a next-line instruction prefetch.
func (c *Core) il1Prefetch(pc, line uint64, t uint64) {
	if c.il1.Probe(line) {
		return
	}
	done := c.mem.Access(c.id, pc, line, false, true, t)
	c.record(UncoreRequest{OpIndex: c.pos, VAddr: line, PC: pc, Kind: ReqInstr, Prefetch: true, Issue: t, Complete: done})
	c.stats.UncorePref++
	c.il1.Fill(line, false, true)
}

// issue computes the op's issue cycle: operands ready, reservation
// station free, load/store queue entry free, issue slot free.
func (c *Core) issue(op *trace.Op, i, fetch uint64) uint64 {
	ready := fetch + c.cfg.FetchToIssue
	if d := op.Dep1(); d > 0 {
		if t := c.completeT[(i-uint64(d))%ring]; t > ready {
			ready = t
		}
	}
	if d := op.Dep2(); d > 0 {
		if t := c.completeT[(i-uint64(d))%ring]; t > ready {
			ready = t
		}
	}
	// RS occupancy (approximated in program order: entry i-RS freed at
	// its issue).
	if i >= uint64(c.cfg.RS) {
		if t := c.issueT[(i-uint64(c.cfg.RS))%ring]; t > ready {
			ready = t
		}
	}
	switch op.Kind {
	case trace.Load:
		if c.loadSeq >= uint64(c.cfg.LDQ) {
			if t := c.loadDone[(c.loadSeq-uint64(c.cfg.LDQ))%uint64(len(c.loadDone))]; t > ready {
				ready = t
			}
		}
	case trace.Store:
		if c.storeSeq >= uint64(c.cfg.STQ) {
			if t := c.storeDone[(c.storeSeq-uint64(c.cfg.STQ))%uint64(len(c.storeDone))]; t > ready {
				ready = t
			}
		}
	}
	return c.bookIssueSlot(ready)
}

// bookIssueSlot finds the first cycle >= earliest with spare issue
// bandwidth and books it.
func (c *Core) bookIssueSlot(earliest uint64) uint64 {
	t := earliest
	for {
		idx := t % issueSlots
		s := c.slots[idx]
		if s>>4 != t {
			s = t << 4 // stale slot: re-tag with a zero count
		}
		if int(s&15) < c.cfg.IssueWidth {
			c.slots[idx] = s + 1
			return t
		}
		t++
	}
}

// doCall models target prediction for a call: direct calls hit the BTAC,
// indirect calls the indirect predictor; a wrong or missing target costs
// the redirect penalty. The return address is pushed on both the
// 16-entry RAS (the predictor) and the unbounded shadow stack (the
// architectural truth).
func (c *Core) doCall(op *trace.Op, complete uint64) {
	target := op.Addr()
	var predicted uint64
	var ok bool
	if op.Indirect() {
		predicted, ok = c.ind.Predict(op.PC)
		c.ind.Update(op.PC, target)
	} else {
		predicted, ok = c.btac.Predict(op.PC)
		c.btac.Update(op.PC, target)
	}
	if !ok || predicted != target {
		c.redirectAt = complete + c.cfg.MispredictPenalty
	}
	// Return address: the µop after the call (synthetic 16-byte slots).
	ret := op.PC + 16
	c.ras.Push(ret)
	c.shadowRAS = append(c.shadowRAS, ret)
}

// doReturn pops the RAS against the shadow stack; a wrong prediction
// (RAS overflow dropped the matching push, or a trace restart emptied the
// shadow stack) costs the redirect penalty.
func (c *Core) doReturn(complete uint64) {
	var want uint64
	if n := len(c.shadowRAS); n > 0 {
		want = c.shadowRAS[n-1]
		c.shadowRAS = c.shadowRAS[:n-1]
	}
	if got := c.ras.Pop(want); got != want {
		c.redirectAt = complete + c.cfg.MispredictPenalty
	}
}

// execute returns the op's completion time.
func (c *Core) execute(op *trace.Op, issue uint64) uint64 {
	switch op.Kind {
	case trace.ALU, trace.Branch, trace.Call, trace.Ret:
		return issue + 1
	case trace.FP:
		return issue + c.cfg.FPLat
	case trace.Load:
		return c.load(op, issue)
	case trace.Store:
		c.store(op, issue)
		return issue + 1
	}
	panic(fmt.Sprintf("cpu: unknown op kind %v", op.Kind))
}

// load models DTLB + DL1 access (with MSHRs and prefetch) for a load.
func (c *Core) load(op *trace.Op, issue uint64) uint64 {
	t, addr := issue, op.Addr()
	if !c.dtlb.lookup(addr / uncore.PageSize) {
		t += c.cfg.TLBWalkLat
	}
	t += c.cfg.DL1Lat
	line := cache.AlignLine(addr)
	hit := c.dl1.Access(line, false)
	var done uint64
	if hit {
		done = t
		if fill, ok := c.dl1MissLookup(line); ok && fill > done {
			done = fill // late fill (e.g. in-flight prefetch)
		}
	} else {
		done = c.dl1FillMiss(op.PC, line, false, t)
	}
	c.dl1PrefetchObserve(op.PC, addr, !hit, t)
	return done
}

// store models the DL1 write path: stores retire through the store
// buffer without blocking; a write miss allocates the line in the
// background (RFO).
func (c *Core) store(op *trace.Op, issue uint64) {
	t, addr := issue, op.Addr()
	if !c.dtlb.lookup(addr / uncore.PageSize) {
		t += c.cfg.TLBWalkLat
	}
	t += c.cfg.DL1Lat
	line := cache.AlignLine(addr)
	if hit := c.dl1.Access(line, true); !hit {
		c.dl1FillMiss(op.PC, line, true, t)
	}
	c.dl1PrefetchObserve(op.PC, addr, false, t)
}

// dl1FillMiss services a DL1 demand miss at time t through the MSHRs and
// the uncore; it returns the fill completion time.
func (c *Core) dl1FillMiss(pc, line uint64, write bool, t uint64) uint64 {
	if done, ok := c.dl1MissLookup(line); ok {
		if done < t {
			return t
		}
		return done // merged into an in-flight fill
	}
	c.pruneDL1(t)
	if c.dl1MissN >= c.cfg.DL1MSHRs {
		if e := c.earliestDL1(); e > t {
			t = e
		}
		c.pruneDL1(t)
	}
	done := c.mem.Access(c.id, pc, line, write, false, t)
	c.record(UncoreRequest{OpIndex: c.pos, VAddr: line, PC: pc, Kind: ReqData, Write: write, Issue: t, Complete: done})
	c.stats.UncoreDemand++
	c.dl1MissInsert(line, done)
	ev := c.dl1.Fill(line, write, false)
	if ev.Valid && ev.Dirty {
		// Write the dirty victim back to the LLC at fill time.
		c.mem.Access(c.id, pc, ev.Addr, true, false, done)
		c.record(UncoreRequest{OpIndex: c.pos, VAddr: ev.Addr, PC: pc, Kind: ReqWB, Write: true, Issue: done, Complete: done})
		c.stats.UncoreDemand++
	}
	return done
}

// dl1Prefetch issues one DL1 prefetch if the line is not resident or in
// flight, dropping it when the MSHRs are full.
func (c *Core) dl1Prefetch(pc, line uint64, t uint64) {
	if c.dl1.Probe(line) {
		return
	}
	if _, ok := c.dl1MissLookup(line); ok {
		return
	}
	// Prefetches only use spare MSHR capacity: demand traffic keeps
	// priority under pressure. The candidate/issued counts calibrate the
	// fast-forward path's replay of this drop rate.
	c.pfCand++
	if c.dl1MissN >= c.cfg.DL1MSHRs/2 {
		return
	}
	c.pfIssued++
	done := c.mem.Access(c.id, pc, line, false, true, t)
	c.record(UncoreRequest{OpIndex: c.pos, VAddr: line, PC: pc, Kind: ReqData, Prefetch: true, Issue: t, Complete: done})
	c.stats.UncorePref++
	c.dl1MissInsert(line, done)
	ev := c.dl1.Fill(line, false, true)
	if ev.Valid && ev.Dirty {
		c.mem.Access(c.id, pc, ev.Addr, true, false, done)
		c.record(UncoreRequest{OpIndex: c.pos, VAddr: ev.Addr, PC: pc, Kind: ReqWB, Write: true, Issue: done, Complete: done})
		c.stats.UncoreDemand++
	}
}

// dl1PrefetchObserve trains the DL1 prefetchers and issues proposals.
func (c *Core) dl1PrefetchObserve(pc, addr uint64, miss bool, t uint64) {
	props := c.dpf.Observe(pc, addr, miss)
	if len(props) == 0 {
		return
	}
	// Stage through the reusable per-core scratch: props aliases the
	// prefetcher's internal buffer, which the next Observe overwrites.
	// (Element-wise: proposals are 1-2 entries, below memmove's worth.)
	c.pfBuf = c.pfBuf[:0]
	for _, a := range props {
		c.pfBuf = append(c.pfBuf, a)
	}
	for _, a := range c.pfBuf {
		c.dl1Prefetch(pc, cache.AlignLine(a), t)
	}
}

// dl1MissLookup returns the completion time of the fill of line, if one
// is booked (possibly already expired — entries persist until pruned).
func (c *Core) dl1MissLookup(line uint64) (uint64, bool) {
	for i := 0; i < c.dl1MissN; i++ {
		if c.dl1Miss[i].line == line {
			return c.dl1Miss[i].done, true
		}
	}
	return 0, false
}

// dl1MissInsert books an MSHR for a fill of line completing at done.
// Callers ensure capacity beforehand; if the file is somehow full, the
// earliest-completing entry is replaced (unreachable through the normal
// paths; keeps the model robust).
func (c *Core) dl1MissInsert(line, done uint64) {
	if c.dl1MissN == len(c.dl1Miss) {
		min := 0
		for i := 1; i < c.dl1MissN; i++ {
			if c.dl1Miss[i].done < c.dl1Miss[min].done {
				min = i
			}
		}
		c.dl1Miss[min] = mshrEntry{line: line, done: done}
		return
	}
	c.dl1Miss[c.dl1MissN] = mshrEntry{line: line, done: done}
	c.dl1MissN++
}

func (c *Core) pruneDL1(now uint64) {
	for i := 0; i < c.dl1MissN; {
		if c.dl1Miss[i].done <= now {
			c.dl1MissN--
			c.dl1Miss[i] = c.dl1Miss[c.dl1MissN]
		} else {
			i++
		}
	}
}

func (c *Core) earliestDL1() uint64 {
	first := true
	var min uint64
	for i := 0; i < c.dl1MissN; i++ {
		if done := c.dl1Miss[i].done; first || done < min {
			min = done
			first = false
		}
	}
	return min
}

// commit retires the op in order with commit-width bandwidth.
func (c *Core) commit(complete uint64) uint64 {
	ct := complete
	if c.lastCommit > ct {
		ct = c.lastCommit
	}
	if ct == c.lastCommitCyc {
		if c.commitsInCycle >= c.cfg.CommitWidth {
			ct++
			c.lastCommitCyc = ct
			c.commitsInCycle = 1
		} else {
			c.commitsInCycle++
		}
	} else {
		c.lastCommitCyc = ct
		c.commitsInCycle = 1
	}
	c.lastCommit = ct
	return ct
}

func (c *Core) record(r UncoreRequest) {
	if c.recorder != nil {
		*c.recorder = append(*c.recorder, r)
	}
}

// Run executes n µops and returns the resulting statistics snapshot.
func (c *Core) Run(n int) Stats {
	for i := 0; i < n; i++ {
		c.Step()
	}
	return c.Stats()
}
