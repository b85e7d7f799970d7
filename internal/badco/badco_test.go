package badco

import (
	"math"
	"testing"
	"time"

	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

const testTraceLen = 30000

func buildModel(t *testing.T, name string) (*Model, *trace.Trace) {
	t.Helper()
	p, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	tr := trace.MustGenerate(p, testTraceLen)
	m, err := Build(tr, DefaultBuildConfig())
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return m, tr
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, DefaultBuildConfig()); err == nil {
		t.Error("Build accepted nil trace")
	}
	cfg := DefaultBuildConfig()
	cfg.LatB = cfg.LatA
	p, _ := trace.ByName("mcf")
	tr := trace.MustGenerate(p, 1000)
	if _, err := Build(tr, cfg); err == nil {
		t.Error("Build accepted equal calibration latencies")
	}
}

func TestModelStructure(t *testing.T) {
	m, tr := buildModel(t, "mcf")
	if m.NodeCount() == 0 {
		t.Fatal("mcf model has no nodes")
	}
	if m.TraceLen != tr.Len() {
		t.Errorf("trace length %d, want %d", m.TraceLen, tr.Len())
	}
	prevOp := -1
	for i, n := range m.Nodes {
		if n.OpIndex < prevOp {
			t.Fatalf("node %d op index %d < previous %d", i, n.OpIndex, prevOp)
		}
		prevOp = n.OpIndex
		if n.Dep >= i {
			t.Fatalf("node %d depends on later node %d", i, n.Dep)
		}
	}
}

func TestMemoryBoundHasMoreNodes(t *testing.T) {
	mcf, _ := buildModel(t, "mcf")
	povray, _ := buildModel(t, "povray")
	if mcf.RequestsPerKiloOp() <= povray.RequestsPerKiloOp() {
		t.Errorf("mcf %.2f req/kop not above povray %.2f",
			mcf.RequestsPerKiloOp(), povray.RequestsPerKiloOp())
	}
}

func TestChaseModelHasDependencies(t *testing.T) {
	// Pointer chasing serialises misses: many nodes must carry inferred
	// dependencies.
	m, _ := buildModel(t, "mcf")
	dep := 0
	for _, n := range m.Nodes {
		if n.Dep >= 0 {
			dep++
		}
	}
	if frac := float64(dep) / float64(len(m.Nodes)); frac < 0.3 {
		t.Errorf("mcf dependent-node fraction %.2f, want >= 0.3", frac)
	}
}

func TestStreamModelKeepsMemoryParallelism(t *testing.T) {
	// libquantum streams: its misses overlap in the detailed core, so the
	// model must retain memory-level parallelism — replaying it against a
	// slow memory has to finish well ahead of the fully serialised bound.
	// (Node-level Dep fractions are not meaningful here: rhythmic streams
	// produce coincidental delta matches that faithfully mimic timing.)
	m, _ := buildModel(t, "libquantum")
	const lat = 300
	end := MustNewMachine(0, m, &uncore.FixedLatency{Lat: lat}).RunIterations(1)
	serialBound := uint64(len(m.Nodes)) * lat
	if end*2 >= serialBound {
		t.Errorf("libquantum replay at lat %d took %d cycles, want < half the serial bound %d",
			lat, end, serialBound)
	}
	// A pointer chase, by contrast, must be strongly serialised: more
	// cycles per node than the stream.
	mcf, _ := buildModel(t, "mcf")
	mcfEnd := MustNewMachine(0, mcf, &uncore.FixedLatency{Lat: lat}).RunIterations(1)
	mcfPerNode := float64(mcfEnd) / float64(len(mcf.Nodes))
	libqPerNode := float64(end) / float64(len(m.Nodes))
	if mcfPerNode <= libqPerNode {
		t.Errorf("mcf %.1f cycles/node not above libquantum %.1f", mcfPerNode, libqPerNode)
	}
}

// The machine must reproduce the calibration run almost exactly when
// replayed against the calibration latency.
func TestMachineReproducesCalibration(t *testing.T) {
	for _, name := range []string{"mcf", "gcc", "povray", "libquantum"} {
		m, _ := buildModel(t, name)
		cfg := DefaultBuildConfig()
		ma := MustNewMachine(0, m, &uncore.FixedLatency{Lat: cfg.LatA})
		end := ma.RunIterations(1)
		err := math.Abs(float64(end)-float64(m.CalCycles)) / float64(m.CalCycles)
		if err > 0.08 {
			t.Errorf("%s: replay at calibration latency ends at %d vs detailed %d (%.1f%% error)",
				name, end, m.CalCycles, err*100)
		}
	}
}

// CPI error against the detailed simulator on a real uncore should be
// small (the paper reports ~4-5% average, < 22% max on its setup).
func TestMachineApproximatesDetailedOnRealUncore(t *testing.T) {
	var totalErr float64
	names := []string{"mcf", "gcc", "povray", "libquantum", "soplex", "hmmer"}
	for _, name := range names {
		p, _ := trace.ByName(name)
		tr := trace.MustGenerate(p, testTraceLen)
		m, err := Build(tr, DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}

		det := cpu.MustNew(0, cpu.DefaultConfig(), tr,
			uncore.MustNew(uncore.ConfigFor(1, cache.LRU)))
		det.Run(tr.Len())
		detCPI := det.Stats().CPI()

		ma := MustNewMachine(0, m, uncore.MustNew(uncore.ConfigFor(1, cache.LRU)))
		ma.RunIterations(1)
		badcoCPI := ma.CPI()

		relErr := math.Abs(badcoCPI-detCPI) / detCPI
		totalErr += relErr
		t.Logf("%s: detailed CPI %.3f, BADCO CPI %.3f (%.1f%% error)",
			name, detCPI, badcoCPI, relErr*100)
		// The paper reports < 22% worst-case on its setup; our worst case
		// (streaming benchmarks at short trace lengths, where flat-latency
		// calibration undershoots a bimodal-latency uncore) is wider.
		if relErr > 0.45 {
			t.Errorf("%s: BADCO CPI error %.1f%% exceeds 45%%", name, relErr*100)
		}
	}
	if avg := totalErr / float64(len(names)); avg > 0.18 {
		t.Errorf("average BADCO CPI error %.1f%%, want <= 18%%", avg*100)
	}
}

func TestMachineFasterThanDetailed(t *testing.T) {
	p, _ := trace.ByName("gcc")
	tr := trace.MustGenerate(p, testTraceLen)
	m, err := Build(tr, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}

	// The fastest of three runs per side: background load on a shared
	// host only ever adds time, and one descheduled run must not decide
	// the comparison.
	timeIt := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 3 {
			start := time.Now()
			f()
			best = min(best, time.Since(start))
		}
		return best
	}
	detDur := timeIt(func() {
		det := cpu.MustNew(0, cpu.DefaultConfig(), tr,
			uncore.MustNew(uncore.ConfigFor(1, cache.LRU)))
		det.Run(tr.Len() * 3)
	})
	badcoDur := timeIt(func() {
		ma := MustNewMachine(0, m, uncore.MustNew(uncore.ConfigFor(1, cache.LRU)))
		ma.RunIterations(3)
	})
	if badcoDur*2 >= detDur {
		t.Errorf("BADCO (%v) not clearly faster than detailed (%v)", badcoDur, detDur)
	}
}

func TestMachineIterationAccounting(t *testing.T) {
	m, tr := buildModel(t, "astar")
	ma := MustNewMachine(0, m, &uncore.FixedLatency{Lat: 50})
	ma.RunIterations(3)
	iters, end := ma.IterationEnds()
	if iters != 3 {
		t.Errorf("iterations %d, want 3", iters)
	}
	if end == 0 {
		t.Error("zero end time")
	}
	if got := ma.Committed(); got != 3*uint64(tr.Len()) {
		t.Errorf("committed %d, want %d", got, 3*tr.Len())
	}
	if ma.CPI() <= 0 {
		t.Error("non-positive CPI")
	}
}

func TestMachineMonotonicClock(t *testing.T) {
	m, _ := buildModel(t, "soplex")
	ma := MustNewMachine(0, m, uncore.MustNew(uncore.ConfigFor(1, cache.DIP)))
	prev := uint64(0)
	for i := 0; i < len(m.Nodes)*2+10; i++ {
		now := ma.Step()
		if now < prev {
			t.Fatalf("clock went backwards at step %d: %d < %d", i, now, prev)
		}
		prev = now
	}
}

func TestEmptyNodeModel(t *testing.T) {
	// A trace with a tiny working set may produce a model with only a
	// handful of nodes; an artificial node-free model must still advance.
	m := &Model{Name: "none", TraceLen: 1000, Head: 250}
	ma := MustNewMachine(0, m, &uncore.FixedLatency{Lat: 10})
	end := ma.RunIterations(2)
	if end != 500 {
		t.Errorf("node-free model end %d, want 500", end)
	}
	if ma.Committed() != 2000 {
		t.Errorf("committed %d, want 2000", ma.Committed())
	}
}

func TestNewMachineValidation(t *testing.T) {
	m, _ := buildModel(t, "hmmer")
	if _, err := NewMachine(0, nil, &uncore.FixedLatency{}); err == nil {
		t.Error("NewMachine accepted nil model")
	}
	if _, err := NewMachine(0, m, nil); err == nil {
		t.Error("NewMachine accepted nil memory")
	}
}

// Slower memory must slow the machine down (sanity of the replay timing).
func TestMachineLatencySensitivity(t *testing.T) {
	m, _ := buildModel(t, "mcf")
	fast := MustNewMachine(0, m, &uncore.FixedLatency{Lat: 30})
	slow := MustNewMachine(0, m, &uncore.FixedLatency{Lat: 300})
	fEnd := fast.RunIterations(1)
	sEnd := slow.RunIterations(1)
	if sEnd <= fEnd {
		t.Errorf("300-cycle memory end %d not after 30-cycle end %d", sEnd, fEnd)
	}
}
