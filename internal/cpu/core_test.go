package cpu

import (
	"math"
	"math/rand"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// fastMem is a fixed-latency memory for isolated core tests.
func fastMem(lat uint64) *uncore.FixedLatency { return &uncore.FixedLatency{Lat: lat} }

func mkTrace(t *testing.T, name string, n int) *trace.Trace {
	t.Helper()
	p, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return trace.MustGenerate(p, n)
}

func TestNewValidation(t *testing.T) {
	tr := mkTrace(t, "hmmer", 100)
	if _, err := New(0, DefaultConfig(), nil, fastMem(10)); err == nil {
		t.Error("New accepted nil trace")
	}
	if _, err := New(0, DefaultConfig(), tr, nil); err == nil {
		t.Error("New accepted nil memory")
	}
	cfg := DefaultConfig()
	cfg.ROB = ring + 1
	if _, err := New(0, cfg, tr, fastMem(10)); err == nil {
		t.Error("New accepted oversized ROB")
	}
	cfg = DefaultConfig()
	cfg.RS = ring + 1
	if _, err := New(0, cfg, tr, fastMem(10)); err == nil {
		t.Error("New accepted oversized RS")
	}
}

func TestIPCWithinSuperscalarBounds(t *testing.T) {
	for _, name := range []string{"hmmer", "mcf", "povray"} {
		tr := mkTrace(t, name, 20000)
		c := MustNew(0, DefaultConfig(), tr, fastMem(20))
		s := c.Run(tr.Len())
		ipc := s.IPC()
		if ipc <= 0 || ipc > float64(DefaultConfig().CommitWidth) {
			t.Errorf("%s: IPC %g outside (0, %d]", name, ipc, DefaultConfig().CommitWidth)
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr := mkTrace(t, "gcc", 10000)
	run := func() uint64 {
		c := MustNew(0, DefaultConfig(), tr, fastMem(25))
		c.Run(tr.Len())
		return c.Cycles()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
	}
}

func TestMemoryLatencySlowsExecution(t *testing.T) {
	tr := mkTrace(t, "mcf", 20000) // memory-bound benchmark
	fast := MustNew(0, DefaultConfig(), tr, fastMem(10))
	slow := MustNew(0, DefaultConfig(), tr, fastMem(400))
	fast.Run(tr.Len())
	slow.Run(tr.Len())
	if slow.Cycles() <= fast.Cycles() {
		t.Fatalf("400-cycle memory (%d cyc) not slower than 10-cycle (%d cyc)",
			slow.Cycles(), fast.Cycles())
	}
	// A memory-bound chase should be strongly latency sensitive.
	ratio := float64(slow.Cycles()) / float64(fast.Cycles())
	if ratio < 1.5 {
		t.Errorf("mcf latency sensitivity only %.2fx, want > 1.5x", ratio)
	}
}

func TestComputeBoundInsensitiveToMemory(t *testing.T) {
	// A working set that fits in the DL1 and code that fits in the IL1:
	// the core should barely notice uncore latency.
	p := trace.Params{
		Name: "l1fit", LoadFrac: 0.25, StoreFrac: 0.1, BranchFrac: 0.1,
		BranchBias: 0.98, DepMean: 10, CodeBytes: 8 * trace.KB, Seed: 4,
		Patterns: []trace.PatternSpec{{Kind: trace.HotSet, Bytes: 8 * trace.KB, Weight: 1}},
	}
	tr := trace.MustGenerate(p, 20000)
	// Warm the L1s with a full pass, then measure a second pass so cold
	// misses do not dominate.
	secondPass := func(lat uint64) uint64 {
		c := MustNew(0, DefaultConfig(), tr, fastMem(lat))
		c.Run(tr.Len())
		warm := c.Cycles()
		c.Run(tr.Len())
		return c.Cycles() - warm
	}
	fast := secondPass(10)
	slow := secondPass(400)
	ratio := float64(slow) / float64(fast)
	if ratio > 1.3 {
		t.Errorf("L1-resident trace slowed %.2fx by memory latency, want < 1.3x", ratio)
	}
}

func TestILPSensitivity(t *testing.T) {
	// A fully serial dependency chain must run at ~1 µop/cycle while the
	// same ops without dependencies run at the machine width.
	const n = 20000
	mk := func(dep uint16) *trace.Trace {
		ops := make([]trace.Op, n)
		for i := range ops {
			ops[i] = trace.Op{Kind: trace.ALU, PC: 0x10000000}
			if i > 0 {
				ops[i].SetDep1(dep)
			}
		}
		return &trace.Trace{Name: "chain", Ops: ops}
	}
	run := func(tr *trace.Trace) uint64 {
		c := MustNew(0, DefaultConfig(), tr, fastMem(20))
		c.Run(tr.Len())
		return c.Cycles()
	}
	serial := run(mk(1))
	parallel := run(mk(0))
	if serial < n {
		t.Errorf("serial chain finished in %d cycles, want >= %d (1 op/cycle)", serial, n)
	}
	if parallel*2 >= serial {
		t.Errorf("independent ops (%d cyc) not clearly faster than serial chain (%d cyc)",
			parallel, serial)
	}
}

func TestBranchyCodePaysMispredictions(t *testing.T) {
	mk := func(bias float64) uint64 {
		p := trace.Params{
			Name: "br", LoadFrac: 0.05, BranchFrac: 0.3, BranchBias: bias,
			DepMean: 8, CodeBytes: 16 * trace.KB, Seed: 6,
			Patterns: []trace.PatternSpec{{Kind: trace.HotSet, Bytes: 8 * trace.KB, Weight: 1}},
		}
		tr := trace.MustGenerate(p, 20000)
		c := MustNew(0, DefaultConfig(), tr, fastMem(20))
		c.Run(tr.Len())
		return c.Cycles()
	}
	predictable := mk(0.995)
	unpredictable := mk(0.6)
	if unpredictable <= predictable {
		t.Errorf("60%%-biased branches (%d cyc) not slower than 99.5%%-biased (%d cyc)",
			unpredictable, predictable)
	}
}

func TestBranchPredictorLearnsBiasedBranches(t *testing.T) {
	tr := mkTrace(t, "libquantum", 30000) // bias 0.99
	c := MustNew(0, DefaultConfig(), tr, fastMem(20))
	s := c.Run(tr.Len())
	if s.BranchLookups == 0 {
		t.Fatal("no branches predicted")
	}
	rate := float64(s.BranchMisses) / float64(s.BranchLookups)
	if rate > 0.05 {
		t.Errorf("mispredict rate %.3f on 0.99-biased branches, want < 0.05", rate)
	}
}

func TestStatsAccounting(t *testing.T) {
	tr := mkTrace(t, "soplex", 20000)
	c := MustNew(0, DefaultConfig(), tr, fastMem(50))
	s := c.Run(tr.Len())
	if s.Committed != uint64(tr.Len()) {
		t.Errorf("committed %d, want %d", s.Committed, tr.Len())
	}
	if s.Cycles == 0 {
		t.Error("zero cycles")
	}
	if s.DL1.Accesses == 0 || s.DL1.Misses == 0 {
		t.Errorf("soplex DL1 stats implausible: %+v", s.DL1)
	}
	if s.UncoreDemand == 0 {
		t.Error("no uncore demand requests from a high-MPKI benchmark")
	}
	if math.Abs(s.IPC()*s.CPI()-1) > 1e-9 {
		t.Errorf("IPC*CPI = %g, want 1", s.IPC()*s.CPI())
	}
}

func TestTraceWrapsAround(t *testing.T) {
	tr := mkTrace(t, "hmmer", 500)
	c := MustNew(0, DefaultConfig(), tr, fastMem(20))
	c.Run(1200) // 2.4 traversals
	if c.Committed() != 1200 {
		t.Errorf("committed %d, want 1200", c.Committed())
	}
}

func TestRecorderCapturesRequests(t *testing.T) {
	tr := mkTrace(t, "mcf", 10000)
	c := MustNew(0, DefaultConfig(), tr, fastMem(100))
	var reqs []UncoreRequest
	c.SetRecorder(&reqs)
	c.Run(tr.Len())
	if len(reqs) == 0 {
		t.Fatal("recorder captured nothing for a memory-bound benchmark")
	}
	demand := 0
	for i, r := range reqs {
		if r.OpIndex < 0 || r.OpIndex >= tr.Len() {
			t.Fatalf("request %d has op index %d out of range", i, r.OpIndex)
		}
		if r.Complete < r.Issue {
			t.Fatalf("request %d completes (%d) before issue (%d)", i, r.Complete, r.Issue)
		}
		if !r.Prefetch && r.Kind == ReqData {
			demand++
		}
	}
	if demand == 0 {
		t.Fatal("no demand data requests recorded")
	}
	// Stopping the recorder stops appends.
	c.SetRecorder(nil)
	n := len(reqs)
	c.Run(1000)
	if len(reqs) != n {
		t.Error("recorder still appending after SetRecorder(nil)")
	}
}

func TestCommitTimesMonotonic(t *testing.T) {
	tr := mkTrace(t, "astar", 5000)
	c := MustNew(0, DefaultConfig(), tr, fastMem(30))
	prev := uint64(0)
	for i := 0; i < tr.Len(); i++ {
		ct := c.Step()
		if ct < prev {
			t.Fatalf("commit time went backwards at op %d: %d < %d", i, ct, prev)
		}
		prev = ct
	}
}

func TestCommitBandwidthRespected(t *testing.T) {
	// With a 4-wide commit, N µops need at least N/4 cycles.
	tr := mkTrace(t, "hmmer", 20000)
	cfg := DefaultConfig()
	c := MustNew(0, cfg, tr, fastMem(10))
	c.Run(tr.Len())
	minCycles := uint64(tr.Len() / cfg.CommitWidth)
	if c.Cycles() < minCycles {
		t.Errorf("cycles %d below commit-width bound %d", c.Cycles(), minCycles)
	}
}

func TestNarrowerCoreIsSlower(t *testing.T) {
	tr := mkTrace(t, "hmmer", 20000)
	wide := DefaultConfig()
	narrow := DefaultConfig()
	narrow.DecodeWidth, narrow.IssueWidth, narrow.CommitWidth = 1, 1, 1
	cw := MustNew(0, wide, tr, fastMem(20))
	cn := MustNew(0, narrow, tr, fastMem(20))
	cw.Run(tr.Len())
	cn.Run(tr.Len())
	if cn.Cycles() <= cw.Cycles() {
		t.Errorf("scalar core (%d cyc) not slower than 4-wide core (%d cyc)", cn.Cycles(), cw.Cycles())
	}
}

func TestSmallROBIsSlower(t *testing.T) {
	tr := mkTrace(t, "mcf", 20000)
	big := DefaultConfig()
	small := DefaultConfig()
	small.ROB = 16
	cb := MustNew(0, big, tr, fastMem(200))
	cs := MustNew(0, small, tr, fastMem(200))
	cb.Run(tr.Len())
	cs.Run(tr.Len())
	if cs.Cycles() <= cb.Cycles() {
		t.Errorf("16-entry ROB (%d cyc) not slower than 128-entry (%d cyc) on memory-bound code",
			cs.Cycles(), cb.Cycles())
	}
}

// TestCarriedIL1WayMatchesWay drives cores through Step, FastForward and
// Skip, wrapping their traces several times, and checks after every µop
// that the IL1 way carried from the last code-line fetch to the next
// (nextIWay) is where the IL1 holds that line (Way), and that fetches did
// take the carried way.
func TestCarriedIL1WayMatchesWay(t *testing.T) {
	for _, bench := range []string{"gcc", "povray", "mcf"} {
		for _, mem := range []string{"uncore", "fixed"} {
			tr := mkTrace(t, bench, 3000)
			var m uncore.Memory = fastMem(30)
			if mem == "uncore" {
				m = uncore.MustNew(uncore.ConfigFor(1, "LRU"))
			}
			c := MustNew(0, DefaultConfig(), tr, m)
			rng := rand.New(rand.NewSource(5))
			carried := 0
			for c.Committed() < uint64(4*tr.Len()) {
				if iline := tr.Ops[c.pos].ILine(); (!c.haveILine || iline != c.lastILine) &&
					codeBase+uint64(iline)*cache.LineSize == c.nextILine {
					carried++
				}
				switch r := rng.Intn(100); {
				case r < 60:
					c.Step()
				case r < 99:
					c.FastForward(1)
				default:
					c.Skip(uint64(rng.Intn(tr.Len())))
				}
				if got := c.il1.Way(c.nextILine); got != c.nextIWay || got < 0 {
					t.Fatalf("%s/%s after µop %d: line %#x carried in way %d, IL1 holds it in way %d",
						bench, mem, c.Committed(), c.nextILine, c.nextIWay, got)
				}
			}
			if carried == 0 {
				t.Errorf("%s/%s: no fetch took the carried way", bench, mem)
			}
		}
	}
}
