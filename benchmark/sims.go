package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mcbench"
	"mcbench/internal/cpu"
)

// sizes are the trace lengths of the workloads. At full size the quick
// campaign's 20 000-µop traces are the size every Lab test and the served
// lab use, and the sampled workload's 250 000-µop traces outgrow the host
// caches while the whole suite still fits a small host. Tests shrink them.
type sizes struct {
	traceLen     int // µops per trace of badco-population, detailed-sample and serve-mixed
	longTraceLen int // µops per trace of sampled-long
}

var fullSize = sizes{traceLen: 20000, longTraceLen: 250_000}

// simOp is one simulated workload under one configuration.
type simOp struct {
	kind     string
	workload []string
	opts     []mcbench.Option
}

// simSession runs simOps on one Lab.
type simSession struct {
	lab      *mcbench.Lab
	traceLen int
	ops      []simOp
}

func (s *simSession) size() int    { return len(s.ops) }
func (s *simSession) close() error { return nil }

func (s *simSession) do(ctx context.Context, i int, _ bool) (outcome, error) {
	op := s.ops[i]
	r, err := s.lab.Simulate(ctx, op.workload, op.opts...)
	if err != nil {
		return outcome{}, err
	}
	d, err := checkSim(len(op.workload), r.IPC, r.Cycles, r.CIHalf)
	if err != nil {
		return outcome{}, fmt.Errorf("%s %v: %w", op.kind, op.workload, err)
	}
	uops := simulatedUops(r.Instructions, r.Cycles)
	if r.Windows > 0 {
		uops = float64(len(op.workload) * s.traceLen) // each thread walks its trace once
	}
	return outcome{digest: d, kind: op.kind, muops: uops / 1e6}, nil
}

// simulatedUops estimates how many µops an exact multicore run simulated.
// Every thread keeps running until the slowest one reaches the quota, so
// thread i executes about quota × (slowest thread's cycles / its own).
// Counting that work, and not threads × quota, makes the rate depend on
// the simulator's speed more than on which benchmarks share a workload.
func simulatedUops(quota uint64, cycles []uint64) float64 {
	last := slices.Max(cycles)
	uops := 0.0
	for _, c := range cycles {
		uops += float64(quota) * float64(last) / float64(c)
	}
	return uops
}

// checkSim checks one simulated workload's output — one finite IPC in
// (0, issue width] and a positive cycle count per core, and a finite
// non-negative confidence half-width per core for sampled runs — and
// returns its digest.
func checkSim(cores int, ipc []float64, cycles []uint64, ciHalf []float64) (uint64, error) {
	if len(ipc) != cores || len(cycles) != cores {
		return 0, fmt.Errorf("%d IPCs and %d cycle counts for %d cores", len(ipc), len(cycles), cores)
	}
	width := float64(cpu.DefaultConfig().IssueWidth)
	for c, x := range ipc {
		if !(x > 0 && x <= width) || cycles[c] == 0 {
			return 0, fmt.Errorf("core %d: IPC %v over %d cycles", c, x, cycles[c])
		}
	}
	for c, x := range ciHalf {
		if !(x >= 0) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("core %d: confidence half-width %v", c, x)
		}
	}
	d := newDigest()
	d.floats(ipc)
	d.uints(cycles)
	d.floats(ciHalf)
	return d.sum(), nil
}

// newLab returns a quick-campaign Lab at the given trace length whose
// Monte-Carlo seed is the run's seed.
func newLab(seed int64, traceLen int) *mcbench.Lab {
	cfg := mcbench.QuickConfig()
	cfg.Seed = seed
	cfg.TraceLen = traceLen
	return mcbench.NewLab(cfg)
}

// buildTraces resolves every suite benchmark through the lab's source, so
// that the measured phase finds them memoized.
func buildTraces(ctx context.Context, lab *mcbench.Lab, traceLen int) error {
	for _, name := range lab.Benchmarks() {
		if _, err := lab.Suite().Trace(ctx, name, traceLen); err != nil {
			return err
		}
	}
	return nil
}

// balanced returns n workloads of k threads each in which every benchmark
// fills the same number of thread slots (within one, when n·k is not a
// multiple of the suite size). Balancing keeps the mix of cheap and costly
// benchmarks the same for every seed, so that host time changes with the
// program and not with the draw; the seed only chooses which benchmarks
// share a workload.
func balanced(rng *rand.Rand, names []string, k, n int) [][]string {
	slots := make([]string, 0, n*k+len(names))
	for len(slots) < n*k {
		for _, j := range rng.Perm(len(names)) {
			slots = append(slots, names[j])
		}
	}
	slots = slots[:n*k]
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	ws := make([][]string, n)
	for i := range ws {
		ws[i] = slots[i*k : (i+1)*k]
	}
	return ws
}

// setupBadco builds a Lab and its BADCO models (two detailed calibration
// runs per benchmark), by simulating the first suite benchmark alone; a
// seeded workload there would make set-up time depend on the seed. Its
// cycle is 88 balanced four-core workloads, each under LRU and then DRRIP.
func setupBadco(seed int64, sz sizes) setupFunc {
	return func(ctx context.Context) (session, error) {
		lab := newLab(seed, sz.traceLen)
		s := &simSession{lab: lab, traceLen: sz.traceLen}
		for _, w := range balanced(rand.New(rand.NewSource(seed)), lab.Benchmarks(), 4, 88) {
			for _, p := range []mcbench.Policy{mcbench.LRU, mcbench.DRRIP} {
				s.ops = append(s.ops, simOp{"badco", w, []mcbench.Option{
					mcbench.WithSimulator(mcbench.BADCO), mcbench.WithPolicy(p)}})
			}
		}
		if _, err := lab.Simulate(ctx, lab.Benchmarks()[:1], mcbench.WithSimulator(mcbench.BADCO)); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// setupDetailed builds a Lab and its 22 suite traces. Its cycle is 22
// balanced four-core workloads, each under the five paper policies.
func setupDetailed(seed int64, sz sizes) setupFunc {
	return func(ctx context.Context) (session, error) {
		lab := newLab(seed, sz.traceLen)
		if err := buildTraces(ctx, lab, sz.traceLen); err != nil {
			return nil, err
		}
		s := &simSession{lab: lab, traceLen: sz.traceLen}
		for _, w := range balanced(rand.New(rand.NewSource(seed)), lab.Benchmarks(), 4, 22) {
			for _, p := range mcbench.Policies() {
				s.ops = append(s.ops, simOp{"detailed", w, []mcbench.Option{mcbench.WithPolicy(p)}})
			}
		}
		return s, nil
	}
}

// setupSampled builds a Lab over long traces and generates them all. Its
// cycle is the 22 suite benchmarks alone plus 22 balanced two-core mixes,
// each under the five paper policies, all sampled.
func setupSampled(seed int64, sz sizes) setupFunc {
	return func(ctx context.Context) (session, error) {
		lab := newLab(seed, sz.longTraceLen)
		if err := buildTraces(ctx, lab, sz.longTraceLen); err != nil {
			return nil, err
		}
		s := &simSession{lab: lab, traceLen: sz.longTraceLen}
		// Singles alternate with mixes so that any prefix of the cycle
		// holds both in equal numbers.
		var ws [][]string
		for i, mix := range balanced(rand.New(rand.NewSource(seed)), lab.Benchmarks(), 2, 22) {
			ws = append(ws, []string{lab.Benchmarks()[i]}, mix)
		}
		// Per 20 000 µops of each thread: 2 000 µops of detailed warm-up,
		// then a 2 000-µop measured window.
		sampling := mcbench.WithSampling(20000, 2000, 2000)
		for _, w := range ws {
			for _, p := range mcbench.Policies() {
				s.ops = append(s.ops, simOp{"sampled", w, []mcbench.Option{mcbench.WithPolicy(p), sampling}})
			}
		}
		return s, nil
	}
}
