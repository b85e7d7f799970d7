package badco

import (
	"fmt"

	"mcbench/internal/uncore"
)

// Machine replays a Model against a memory hierarchy. It is the fast
// counterpart of cpu.Core: it executes one node (one demand uncore
// request plus its satellites) per Step instead of one µop, skipping all
// intra-core computation, which is where the simulation speedup comes
// from.
type Machine struct {
	model *Model
	mem   uncore.Memory
	unc   *uncore.Uncore // mem devirtualized, if real and the model has nodes
	id    int

	next    int      // next node index within the current iteration
	iter    uint64   // completed trace iterations
	issueT  []uint64 // per-node issue times, current iteration
	compT   []uint64 // per-node completion times, current iteration
	prevEnd uint64   // end time of the previous iteration
	clock   uint64   // monotonic local clock

	// nodePA and satPA memoize, on a real uncore, the physical address
	// of every node's demand request and of every satellite (indexed
	// like Model.Nodes and Model.Satellites), 0 until StepUntil first
	// executes the node. A core's page table only ever grows, so a
	// translation never changes once made, and the bump allocator never
	// hands out physical page 0. The memo belongs to the machine, not
	// the shared Model: the addresses are this uncore's. It pays for
	// itself: translating each prefetch satellite afresh before its
	// residency test ran badco-population about 10% slower
	// (BENCH_26.nomemo.json).
	//
	// A satPA entry also carries the satellite's Prefetch flag in bit 0
	// (satPrefetch): the model's addresses are line addresses, so the
	// bit is otherwise 0. The replay then tests a satellite for a
	// resident prefetch from its memo word alone.
	nodePA []uint64
	satPA  []uint64
}

// NewMachine binds a model to a core id and memory hierarchy. The
// machine's memory parallelism is bounded by the model's instruction
// window (WindowDep), the same limit the detailed core enforced during
// calibration, so no separate MSHR parameter is needed.
func NewMachine(id int, m *Model, mem uncore.Memory) (*Machine, error) {
	if m == nil {
		return nil, fmt.Errorf("badco: nil model")
	}
	if mem == nil {
		return nil, fmt.Errorf("badco: nil memory")
	}
	ma := &Machine{
		model:  m,
		mem:    mem,
		id:     id,
		issueT: make([]uint64, len(m.Nodes)),
		compT:  make([]uint64, len(m.Nodes)),
	}
	if unc, ok := mem.(*uncore.Uncore); ok && len(m.Nodes) > 0 {
		ma.unc = unc
		ma.nodePA = make([]uint64, len(m.Nodes))
		ma.satPA = make([]uint64, len(m.Satellites))
	}
	return ma, nil
}

// satPrefetch marks a prefetch satellite's memoized physical address.
const satPrefetch = 1

// MustNewMachine is NewMachine for known-good arguments.
func MustNewMachine(id int, m *Model, mem uncore.Memory) *Machine {
	ma, err := NewMachine(id, m, mem)
	if err != nil {
		panic(err)
	}
	return ma
}

// Now returns the machine's monotonic local clock. The multicore driver
// steps the machine with the smallest Now.
func (ma *Machine) Now() uint64 { return ma.clock }

// Committed returns the total number of committed µops: completed
// iterations plus the progress implied by the last executed node.
func (ma *Machine) Committed() uint64 {
	c := ma.iter * uint64(ma.model.TraceLen)
	if ma.next > 0 {
		c += uint64(ma.model.Nodes[ma.next-1].OpIndex)
	}
	return c
}

// IterationEnds returns the completed iteration count and the end time of
// the last completed iteration.
func (ma *Machine) IterationEnds() (iters, endCycle uint64) {
	return ma.iter, ma.prevEnd
}

// Step executes one node: waits for its anchor, issues its demand request
// and its satellites, and records completion. Models with no nodes (fully
// L1-resident benchmarks) advance a whole iteration per Step. It returns
// the machine's local clock after the step.
//
// Step is the plain reference replay: every request, resident prefetches
// included, goes through Memory.Access with its virtual address, and
// nothing is memoized. StepUntil is its fast form.
func (ma *Machine) Step() uint64 {
	m := ma.model
	if len(m.Nodes) == 0 {
		ma.prevEnd += m.Head
		ma.iter++
		ma.clock = ma.prevEnd
		return ma.clock
	}
	j := ma.next
	n := &m.Nodes[j]
	issueT, compT := ma.issueT, ma.compT

	var t int64
	switch {
	case j == 0:
		// Head is the lead-in compute time of the iteration's first node.
		t = int64(ma.prevEnd + m.Head)
	case n.Dep >= 0:
		t = int64(compT[n.Dep]) + n.Delay
	default:
		t = int64(issueT[j-1]) + n.Delay
	}
	if t < int64(ma.prevEnd) {
		t = int64(ma.prevEnd)
	}
	issue := uint64(t)
	// The instruction window bounds run-ahead: this node cannot issue
	// before the node one ROB behind it has completed.
	if n.WindowDep >= 0 {
		if w := compT[n.WindowDep]; w > issue {
			issue = w
		}
	}
	done := ma.mem.Access(ma.id, n.PC, n.VAddr, n.Write, false, issue)
	for _, s := range m.sats(j) {
		ma.mem.Access(ma.id, s.PC, s.VAddr, s.Write, s.Prefetch, issue+s.Offset)
	}

	issueT[j] = issue
	compT[j] = done
	if done > ma.clock {
		ma.clock = done
	}
	ma.next++
	if ma.next == len(m.Nodes) {
		ma.prevEnd = done + m.Tail
		ma.iter++
		ma.next = 0
		if ma.prevEnd > ma.clock {
			ma.clock = ma.prevEnd
		}
	}
	return ma.clock
}

// StepUntil executes nodes until the local clock reaches limit or the
// committed µop count reaches quota, whichever comes first, and returns
// the clock and the committed count it stopped at. It is the batch form
// of Step used by the multicore driver: because Now is nondecreasing and
// the other cores' clocks cannot change while this machine runs,
// stepping until the clock reaches the runner-up core's clock reproduces
// the per-step smallest-clock-first schedule exactly, with one dispatch
// per batch.
//
// On a real uncore the loop body is Step's node replay with the machine
// state held in locals, the committed count maintained incrementally,
// and two shortcuts, both exact. The first execution of a node
// translates its demand address and then its satellites' through
// uncore.Translate, in the order Step's accesses would, so pages are
// still allocated in first-touch order; every execution then issues
// through uncore.AccessPhysical from the memo. And a prefetch satellite
// whose line is already resident is not issued at all: on a resident
// line the uncore's prefetch path changes no state and no counter, and
// a satellite's completion time is never read. On any other memory, and
// for a model with no nodes, StepUntil just loops Step.
//
// The differential tests here (StepUntil against Step on a real uncore)
// and the golden determinism tests in internal/multicore (the batched
// driver against the per-step reference driver) pin the two together.
func (ma *Machine) StepUntil(limit, quota uint64) (now, committed uint64) {
	m := ma.model
	unc := ma.unc
	if unc == nil {
		for ma.clock < limit && ma.Committed() < quota {
			ma.Step()
		}
		return ma.clock, ma.Committed()
	}
	nodes, sats := m.Nodes, m.Satellites
	issueT, compT := ma.issueT, ma.compT
	nodePA, satPA := ma.nodePA, ma.satPA
	id := ma.id
	next, iter := ma.next, ma.iter
	prevEnd, clock := ma.prevEnd, ma.clock
	iterBase := iter * uint64(m.TraceLen)
	committed = iterBase
	sat := 0 // start of node next's satellites
	if next > 0 {
		committed += uint64(nodes[next-1].OpIndex)
		sat = nodes[next-1].SatEnd
	}
	for clock < limit && committed < quota {
		n := &nodes[next]
		var t int64
		switch {
		case next == 0:
			t = int64(prevEnd + m.Head)
		case n.Dep >= 0:
			t = int64(compT[n.Dep]) + n.Delay
		default:
			t = int64(issueT[next-1]) + n.Delay
		}
		if t < int64(prevEnd) {
			t = int64(prevEnd)
		}
		issue := uint64(t)
		if n.WindowDep >= 0 {
			if w := compT[n.WindowDep]; w > issue {
				issue = w
			}
		}
		end := n.SatEnd
		pa := nodePA[next]
		if pa == 0 {
			pa = unc.Translate(id, n.VAddr)
			nodePA[next] = pa
			for k := sat; k < end; k++ {
				satPA[k] = unc.Translate(id, sats[k].VAddr)
				if sats[k].Prefetch {
					satPA[k] |= satPrefetch
				}
			}
		}
		done := unc.AccessPhysical(id, n.PC, pa, n.Write, false, issue)
		for k := sat; k < end; k++ {
			spa := satPA[k]
			if spa&satPrefetch != 0 && unc.Resident(spa) {
				continue
			}
			s := &sats[k]
			unc.AccessPhysical(id, s.PC, spa&^satPrefetch, s.Write, s.Prefetch, issue+s.Offset)
		}
		sat = end
		issueT[next] = issue
		compT[next] = done
		if done > clock {
			clock = done
		}
		next++
		if next == len(nodes) {
			prevEnd = done + m.Tail
			iter++
			next, sat = 0, 0
			iterBase += uint64(m.TraceLen)
			committed = iterBase
			if prevEnd > clock {
				clock = prevEnd
			}
		} else {
			committed = iterBase + uint64(n.OpIndex)
		}
	}
	ma.next, ma.iter = next, iter
	ma.prevEnd, ma.clock = prevEnd, clock
	return clock, committed
}

// RunIterations executes n full trace iterations and returns the end time
// of the last one. It is one StepUntil batch with no clock limit, whose
// quota lands on the iteration boundary: a node's OpIndex lies below
// TraceLen, so the committed count reaches the quota exactly when the
// n-th iteration's last node completes.
func (ma *Machine) RunIterations(n int) uint64 {
	ma.StepUntil(^uint64(0), (ma.iter+uint64(n))*uint64(ma.model.TraceLen))
	return ma.prevEnd
}

// CPI returns cycles per µop over the completed iterations.
func (ma *Machine) CPI() float64 {
	if ma.iter == 0 {
		return 0
	}
	return float64(ma.prevEnd) / float64(ma.iter*uint64(ma.model.TraceLen))
}
