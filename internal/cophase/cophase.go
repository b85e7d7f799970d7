// Package cophase implements the co-phase matrix method of Van
// Biesbrouck, Eeckhout and Calder ("Considering all starting points for
// simultaneous multithreading simulation", ISPASS 2006 — cited as [19] by
// the paper). Footnote 4 of the paper notes that its workload-selection
// problem is orthogonal to, and also concerns, this more rigorous
// multiprogram simulation method; this package makes that concrete.
//
// Each benchmark trace is divided into fixed-length phases. The co-phase
// matrix maps a tuple of per-thread phase ids to the per-thread IPCs
// measured by a short detailed simulation of those phase slices running
// together. A whole multiprogram execution is then replayed analytically:
// threads advance at their matrix-entry IPC until the next phase
// boundary, and matrix entries are filled lazily (and reused) as new
// phase combinations arise. The speed win is the reuse: long executions
// revisit few distinct co-phases.
package cophase

import (
	"fmt"
	"strconv"
	"strings"

	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// Config parameterises the method.
type Config struct {
	// Phases is the number of equal-length phases each benchmark is
	// divided into.
	Phases int
	// SampleOps is the per-thread µop budget of one matrix-entry
	// measurement (a short detailed simulation). It should be well below
	// the phase length for the method to pay off.
	SampleOps int
	// WarmOps is the per-thread warm-up budget run before measuring each
	// entry (stands in for the checkpointed architectural state the
	// original method restores). Zero defaults to SampleOps; cache-heavy
	// benchmarks need warm-up of the order of their working set.
	WarmOps int
	// Policy is the shared-LLC replacement policy of the simulated CMP.
	Policy cache.PolicyName
}

// Result is the outcome of one co-phase-predicted execution.
type Result struct {
	// IPC per core over the first quota instructions of each thread.
	IPC []float64
	// Cycles per core at which the quota was reached.
	Cycles []uint64
	// MatrixEntries is the number of distinct co-phases measured.
	MatrixEntries int
	// SimulatedOps counts the µops actually run through the detailed
	// simulator (the method's cost); compare with quota × cores.
	SimulatedOps uint64
}

// entry is one co-phase matrix row: per-thread IPCs for a phase tuple.
type entry struct {
	ipc []float64
}

// Simulator predicts multiprogram executions of one fixed workload.
type Simulator struct {
	cfg      Config
	names    []string
	traces   []*trace.Trace
	phaseLen []int
	matrix   map[string]entry
	rotCache map[[2]int]*trace.Trace
	simOps   uint64
}

// New builds a co-phase simulator for the workload given by names (one
// benchmark per core; duplicates allowed).
func New(names []string, traces map[string]*trace.Trace, cfg Config) (*Simulator, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cophase: empty workload")
	}
	if cfg.Phases < 1 {
		return nil, fmt.Errorf("cophase: %d phases", cfg.Phases)
	}
	if cfg.SampleOps < 1 {
		return nil, fmt.Errorf("cophase: sample budget %d", cfg.SampleOps)
	}
	s := &Simulator{cfg: cfg, names: names, matrix: map[string]entry{}}
	for _, n := range names {
		tr, ok := traces[n]
		if !ok {
			return nil, fmt.Errorf("cophase: no trace for %q", n)
		}
		if tr.Len() < cfg.Phases {
			return nil, fmt.Errorf("cophase: trace %q shorter than phase count", n)
		}
		s.traces = append(s.traces, tr)
		s.phaseLen = append(s.phaseLen, tr.Len()/cfg.Phases)
	}
	return s, nil
}

// phaseOf returns the phase id of absolute op position pos in thread k
// (positions wrap at the trace end: restart semantics).
func (s *Simulator) phaseOf(k int, pos float64) int {
	n := s.traces[k].Len()
	p := int(pos) % n / s.phaseLen[k]
	if p >= s.cfg.Phases {
		p = s.cfg.Phases - 1 // the last phase absorbs the remainder
	}
	return p
}

// phaseEnd returns the op offset (within one trace iteration) at which
// the given phase ends.
func (s *Simulator) phaseEnd(k, phase int) int {
	if phase >= s.cfg.Phases-1 {
		return s.traces[k].Len()
	}
	return (phase + 1) * s.phaseLen[k]
}

// rotated returns thread k's trace rotated to begin at the given phase's
// first op, caching the result (each phase start is needed whenever a new
// co-phase tuple contains it).
func (s *Simulator) rotated(k, phase int) *trace.Trace {
	if s.rotCache == nil {
		s.rotCache = map[[2]int]*trace.Trace{}
	}
	ck := [2]int{k, phase}
	if tr, ok := s.rotCache[ck]; ok {
		return tr
	}
	ops := s.traces[k].Ops
	start := phase * s.phaseLen[k]
	rot := make([]trace.Op, 0, len(ops))
	rot = append(rot, ops[start:]...)
	rot = append(rot, ops[:start]...)
	tr := &trace.Trace{Name: s.traces[k].Name, Ops: rot}
	s.rotCache[ck] = tr
	return tr
}

// key builds the matrix key for a tuple of phase ids.
func key(phases []int) string {
	parts := make([]string, len(phases))
	for i, p := range phases {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

// measure fills one matrix entry: it runs the phase slices of all
// threads together on a fresh CMP for SampleOps µops per thread and
// records the per-thread IPCs.
func (s *Simulator) measure(phases []int) (entry, error) {
	unc, err := uncore.New(uncore.ConfigFor(len(s.names), s.cfg.Policy))
	if err != nil {
		return entry{}, err
	}
	coreCfg := cpu.DefaultConfig()
	cores := make([]*cpu.Core, len(s.names))
	for k := range s.names {
		// Simulate from the phase's starting point onward (the original
		// method restores a checkpoint there). Rotating the trace keeps
		// position-dependent behaviour — a streaming phase must keep
		// streaming, not loop over its own slice.
		c, err := cpu.New(k, coreCfg, s.rotated(k, phases[k]), unc)
		if err != nil {
			return entry{}, err
		}
		cores[k] = c
	}
	// Smallest-local-clock-first interleaving, as in package multicore.
	// The warm-up µops heat caches and predictors; IPC is measured on the
	// following SampleOps.
	warm := uint64(s.cfg.WarmOps)
	if warm == 0 {
		warm = uint64(s.cfg.SampleOps)
	}
	quota := warm + uint64(s.cfg.SampleOps)
	done := 0
	warmCycle := make([]uint64, len(cores))
	warmed := make([]bool, len(cores))
	reached := make([]bool, len(cores))
	cycles := make([]uint64, len(cores))
	for done < len(cores) {
		min := 0
		for i := 1; i < len(cores); i++ {
			if cores[i].Now() < cores[min].Now() {
				min = i
			}
		}
		cores[min].Step()
		committed := cores[min].Committed()
		if !warmed[min] && committed >= warm {
			warmed[min] = true
			warmCycle[min] = cores[min].Now()
		}
		if !reached[min] && committed >= quota {
			reached[min] = true
			cycles[min] = cores[min].Now()
			done++
		}
	}
	e := entry{ipc: make([]float64, len(cores))}
	for k, cyc := range cycles {
		s.simOps += quota
		if cyc > warmCycle[k] {
			e.ipc[k] = float64(quota-warm) / float64(cyc-warmCycle[k])
		}
	}
	return e, nil
}

// lookup returns the matrix entry for the tuple, measuring it on first
// use.
func (s *Simulator) lookup(phases []int) (entry, error) {
	k := key(phases)
	if e, ok := s.matrix[k]; ok {
		return e, nil
	}
	e, err := s.measure(phases)
	if err != nil {
		return entry{}, err
	}
	s.matrix[k] = e
	return e, nil
}

// Run predicts the execution in which every thread executes quota µops
// (restarting at the trace end until all threads are done, as in the
// paper's methodology), using analytical fast-forwarding between phase
// boundaries.
func (s *Simulator) Run(quota uint64) (Result, error) {
	if quota == 0 {
		return Result{}, fmt.Errorf("cophase: zero quota")
	}
	k := len(s.names)
	pos := make([]float64, k)     // absolute op position per thread
	cyclesAt := make([]uint64, k) // commit cycle at quota
	reached := make([]bool, k)
	phases := make([]int, k)
	var now float64
	remaining := k

	for remaining > 0 {
		for t := 0; t < k; t++ {
			phases[t] = s.phaseOf(t, pos[t])
		}
		e, err := s.lookup(phases)
		if err != nil {
			return Result{}, err
		}
		// Advance to the earliest of: any thread's phase boundary, any
		// unfinished thread's quota crossing.
		delta := -1.0
		for t := 0; t < k; t++ {
			ipc := e.ipc[t]
			if ipc <= 0 {
				ipc = 1e-6 // degenerate entry: avoid stalling forever
			}
			iterPos := int(pos[t]) % s.traces[t].Len()
			boundary := float64(s.phaseEnd(t, phases[t]) - iterPos)
			d := boundary / ipc
			if !reached[t] {
				if togo := float64(quota) - pos[t]; togo > 0 {
					if dq := togo / ipc; dq < d {
						d = dq
					}
				}
			}
			if delta < 0 || d < delta {
				delta = d
			}
		}
		if delta <= 0 {
			delta = 1
		}
		now += delta
		for t := 0; t < k; t++ {
			ipc := e.ipc[t]
			if ipc <= 0 {
				ipc = 1e-6
			}
			pos[t] += ipc * delta
			if !reached[t] && pos[t] >= float64(quota)-1e-9 {
				reached[t] = true
				cyclesAt[t] = uint64(now)
				remaining--
			}
		}
	}

	res := Result{
		IPC:           make([]float64, k),
		Cycles:        cyclesAt,
		MatrixEntries: len(s.matrix),
		SimulatedOps:  s.simOps,
	}
	for t, cyc := range cyclesAt {
		if cyc > 0 {
			res.IPC[t] = float64(quota) / float64(cyc)
		}
	}
	return res, nil
}

// SimulatedOps returns the detailed-simulation cost so far, in µops.
func (s *Simulator) SimulatedOps() uint64 { return s.simOps }
