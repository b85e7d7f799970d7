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
	unc   *uncore.Uncore // mem devirtualized, when it is the real uncore
	id    int

	next    int      // next node index within the current iteration
	iter    uint64   // completed trace iterations
	issueT  []uint64 // per-node issue times, current iteration
	compT   []uint64 // per-node completion times, current iteration
	prevEnd uint64   // end time of the previous iteration
	clock   uint64   // monotonic local clock
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
	unc, _ := mem.(*uncore.Uncore)
	return &Machine{
		model:  m,
		mem:    mem,
		unc:    unc,
		id:     id,
		issueT: make([]uint64, len(m.Nodes)),
		compT:  make([]uint64, len(m.Nodes)),
	}, nil
}

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
	for i := range n.Satellites {
		s := &n.Satellites[i]
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
// the number of nodes executed. It is the batch form of Step used by the
// multicore driver: because Now is nondecreasing and the other cores'
// clocks cannot change while this machine runs, stepping until the clock
// reaches the runner-up core's clock reproduces the per-step
// smallest-clock-first schedule exactly, with one dispatch per batch.
//
// The loop body is Step's node replay with the machine state held in
// locals and the committed count maintained incrementally; the golden
// determinism tests (internal/multicore) pin it to the per-step
// reference driver (driveReference), so the two cannot drift apart
// unnoticed.
func (ma *Machine) StepUntil(limit, quota uint64) (steps uint64) {
	m := ma.model
	nodes := m.Nodes
	if len(nodes) == 0 {
		for ma.clock < limit && ma.Committed() < quota {
			ma.Step()
			steps++
		}
		return steps
	}
	issueT, compT := ma.issueT, ma.compT
	unc, mem, id := ma.unc, ma.mem, ma.id
	next, iter := ma.next, ma.iter
	prevEnd, clock := ma.prevEnd, ma.clock
	iterBase := iter * uint64(m.TraceLen)
	committed := iterBase
	if next > 0 {
		committed += uint64(nodes[next-1].OpIndex)
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
		var done uint64
		if unc != nil {
			done = unc.Access(id, n.PC, n.VAddr, n.Write, false, issue)
		} else {
			done = mem.Access(id, n.PC, n.VAddr, n.Write, false, issue)
		}
		for i := range n.Satellites {
			s := &n.Satellites[i]
			if unc != nil {
				unc.Access(id, s.PC, s.VAddr, s.Write, s.Prefetch, issue+s.Offset)
			} else {
				mem.Access(id, s.PC, s.VAddr, s.Write, s.Prefetch, issue+s.Offset)
			}
		}
		issueT[next] = issue
		compT[next] = done
		if done > clock {
			clock = done
		}
		next++
		if next == len(nodes) {
			prevEnd = done + m.Tail
			iter++
			next = 0
			iterBase += uint64(m.TraceLen)
			committed = iterBase
			if prevEnd > clock {
				clock = prevEnd
			}
		} else {
			committed = iterBase + uint64(n.OpIndex)
		}
		steps++
	}
	ma.next, ma.iter = next, iter
	ma.prevEnd, ma.clock = prevEnd, clock
	return steps
}

// RunIterations executes n full trace iterations and returns the end time
// of the last one.
func (ma *Machine) RunIterations(n int) uint64 {
	target := ma.iter + uint64(n)
	for ma.iter < target {
		ma.Step()
	}
	return ma.prevEnd
}

// CPI returns cycles per µop over the completed iterations.
func (ma *Machine) CPI() float64 {
	if ma.iter == 0 {
		return 0
	}
	return float64(ma.prevEnd) / float64(ma.iter*uint64(ma.model.TraceLen))
}
