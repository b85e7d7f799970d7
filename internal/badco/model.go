// Package badco implements a BADCO-style behavioural application-dependent
// core model (Velásquez et al., SAMOS 2012), the fast approximate
// simulator of the paper.
//
// A Model is built per benchmark from two detailed-simulator runs with
// different fixed uncore latencies. The model is a sequence of nodes, one
// per demand uncore request, each carrying the µops fetched since the
// previous request, an inferred dependency on an earlier node (or none)
// and a compute delay. Prefetch and writeback requests ride along as
// satellites of their nearest demand node; a model keeps all of them in
// one flat array in node order, and each node records where its run of
// satellites ends. A Machine (machine.go) replays the node graph against
// a real uncore: it reproduces the calibration timing exactly under the
// calibration latency and approximates the detailed core under any other
// uncore, at a fraction of the cost.
//
// A Model is read-only once built, so any number of machines may replay
// it at once. Whatever a replay learns about its own uncore lives in the
// Machine: Machine.StepUntil, the replay the multicore driver runs,
// memoizes the physical address of every request the first time its
// node executes, and skips a prefetch satellite whose line the LLC
// already holds. Both are exact (see StepUntil); Machine.Step is the
// plain replay they are tested against.
package badco

import (
	"fmt"

	"mcbench/internal/cpu"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// Satellite is a non-gating request (prefetch or writeback) anchored to a
// demand node: it issues at a fixed offset after the node issues.
type Satellite struct {
	VAddr    uint64 // virtual line address
	PC       uint64
	Offset   uint64 // issue offset from the owning node's issue time
	Write    bool
	Prefetch bool
}

// Node is one demand uncore request plus the computation leading to it.
type Node struct {
	OpIndex int    // trace position reached when this request issued
	VAddr   uint64 // virtual line address of the demand request
	PC      uint64
	Write   bool

	// Dep is the index of the node whose completion gates this node's
	// issue, or -1 if the node is anchored to program progress (the
	// previous node's issue time).
	Dep int
	// Delay is the compute delay: cycles from the anchor (Dep's
	// completion, or the previous node's issue) to this node's issue.
	// Anchored delays may be negative: out-of-order cores issue requests
	// out of program order, and nodes are stored in recording order.
	Delay int64
	// WindowDep is the index of the last node lying more than one
	// reorder-buffer length of µops behind this one, or -1. Its
	// completion bounds this node's issue: the core cannot run further
	// ahead than its instruction window.
	WindowDep int

	// SatEnd ends this node's satellites in Model.Satellites: they are
	// Satellites[start:SatEnd], where start is the previous node's
	// SatEnd (0 for the first node).
	SatEnd int
}

// Model is the behavioural core model of one benchmark on one core
// configuration.
type Model struct {
	Name     string
	TraceLen int    // µops per trace iteration
	Nodes    []Node // demand nodes in issue order
	// Satellites holds every node's satellites, node by node in node
	// order (see Node.SatEnd). One flat array costs no slice header per
	// node and lets a replay walk the satellites of consecutive nodes as
	// one sequential stream.
	Satellites []Satellite
	// Tail is the compute time from the last node's completion to the end
	// of the trace iteration, measured in the calibration run.
	Tail uint64
	// Head is the compute time from iteration start to the first node's
	// issue (also the whole-iteration time when Nodes is empty).
	Head uint64
	// CalCycles is the calibration run A cycle count, for reference.
	CalCycles uint64
}

// sats returns node j's satellites.
func (m *Model) sats(j int) []Satellite {
	start := 0
	if j > 0 {
		start = m.Nodes[j-1].SatEnd
	}
	return m.Satellites[start:m.Nodes[j].SatEnd]
}

// BuildConfig controls model construction.
type BuildConfig struct {
	Core cpu.Config
	// LatA and LatB are the two calibration uncore latencies. They should
	// bracket the plausible range of real uncore latencies.
	LatA, LatB uint64
	// DepWindow is how many earlier nodes are examined when inferring a
	// dependency.
	DepWindow int
	// DepTolerance is the maximum |deltaA - deltaB| (cycles) for a
	// dependency to be accepted.
	DepTolerance uint64
}

// DefaultBuildConfig returns sensible calibration parameters: a near-LLC
// hit latency and a DRAM-class latency.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		Core:         cpu.DefaultConfig(),
		LatA:         30,
		LatB:         300,
		DepWindow:    24,
		DepTolerance: 3,
	}
}

// timedReq is one demand request with observed timing.
type timedReq struct {
	req      cpu.UncoreRequest
	issue    uint64
	complete uint64
}

// Build constructs the behavioural model for tr by running the detailed
// core twice under fixed-latency uncores and inferring the node graph.
func Build(tr *trace.Trace, cfg BuildConfig) (*Model, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("badco: empty trace")
	}
	if cfg.LatA == cfg.LatB {
		return nil, fmt.Errorf("badco: calibration latencies must differ")
	}
	if cfg.DepWindow <= 0 {
		cfg.DepWindow = 24
	}

	runA, cyclesA, err := calibrate(tr, cfg.Core, cfg.LatA)
	if err != nil {
		return nil, err
	}
	runB, cyclesB, err := calibrate(tr, cfg.Core, cfg.LatB)
	if err != nil {
		return nil, err
	}

	demandA, satA := split(runA)
	demandB, _ := split(runB)

	// Match run-B demand requests to run-A requests by address sequence.
	// Timing-dependent divergence (e.g. differently dropped prefetches
	// changing L1 contents) is tolerated by skipping unmatched requests.
	matchB := matchRequests(demandA, demandB)

	m := &Model{
		Name:      tr.Name,
		TraceLen:  tr.Len(),
		Nodes:     make([]Node, 0, len(demandA)),
		CalCycles: cyclesA,
	}
	for j, a := range demandA {
		n := Node{
			OpIndex:   a.req.OpIndex,
			VAddr:     a.req.VAddr,
			PC:        a.req.PC,
			Write:     a.req.Write,
			Dep:       -1,
			WindowDep: -1,
		}
		if j == 0 {
			n.Delay = int64(a.issue)
			m.Head = a.issue
		} else {
			n.Dep, n.Delay = inferDep(demandA, demandB, matchB, j, cfg)
		}
		m.Nodes = append(m.Nodes, n)
	}
	if len(demandA) > 0 {
		last := demandA[len(demandA)-1]
		if cyclesA > last.complete {
			m.Tail = cyclesA - last.complete
		}
	} else {
		m.Head = cyclesA
	}
	calibrateWindow(m, cfg, cyclesB)
	attachSatellites(m, demandA, satA)
	return m, nil
}

// calibrate runs the detailed core over one trace iteration under a
// fixed-latency uncore, recording all requests.
func calibrate(tr *trace.Trace, core cpu.Config, lat uint64) ([]cpu.UncoreRequest, uint64, error) {
	mem := &uncore.FixedLatency{Lat: lat}
	c, err := cpu.New(0, core, tr, mem)
	if err != nil {
		return nil, 0, err
	}
	// Preallocate for a memory-heavy trace (~1 request per 8 µops) so the
	// recording does not grow through repeated reallocations.
	reqs := make([]cpu.UncoreRequest, 0, tr.Len()/8)
	c.SetRecorder(&reqs)
	c.Run(tr.Len())
	return reqs, c.Cycles(), nil
}

// split separates demand requests (which become nodes) from satellites
// (prefetches and writebacks). The satellite slice is index-aligned with
// the demand request that most recently preceded it (-1 if before any).
func split(reqs []cpu.UncoreRequest) ([]timedReq, []satWithAnchor) {
	demand := make([]timedReq, 0, len(reqs))
	sats := make([]satWithAnchor, 0, len(reqs))
	for _, r := range reqs {
		if r.Prefetch || r.Kind == cpu.ReqWB {
			sats = append(sats, satWithAnchor{req: r, anchor: len(demand) - 1})
			continue
		}
		demand = append(demand, timedReq{req: r, issue: r.Issue, complete: r.Complete})
	}
	return demand, sats
}

type satWithAnchor struct {
	req    cpu.UncoreRequest
	anchor int // index of preceding demand node, -1 if none
}

// matchRequests aligns run-B demand requests with run-A requests by
// virtual address, tolerating insertions/deletions. It returns, for each
// A index, the matching B index or -1.
func matchRequests(a, b []timedReq) []int {
	match := make([]int, len(a))
	bi := 0
	for ai := range a {
		match[ai] = -1
		// Look ahead a bounded distance in B for the same address.
		for k := 0; k < 8 && bi+k < len(b); k++ {
			if b[bi+k].req.VAddr == a[ai].req.VAddr {
				match[ai] = bi + k
				bi = bi + k + 1
				break
			}
		}
	}
	return match
}

// inferDep finds the latest earlier node whose completion consistently
// (in both calibration runs) precedes node j's issue by the same delay,
// which is the BADCO signature of a true dependency. Without one, the
// node is anchored to the previous node's issue.
func inferDep(a, b []timedReq, matchB []int, j int, cfg BuildConfig) (dep int, delay int64) {
	ja := a[j]
	jb := -1
	if matchB[j] >= 0 {
		jb = matchB[j]
	}
	lo := j - cfg.DepWindow
	if lo < 0 {
		lo = 0
	}
	if jb >= 0 {
		for i := j - 1; i >= lo; i-- {
			ib := matchB[i]
			if ib < 0 || ib >= jb {
				continue
			}
			if ja.issue < a[i].complete || b[jb].issue < b[ib].complete {
				continue
			}
			deltaA := ja.issue - a[i].complete
			deltaB := b[jb].issue - b[ib].complete
			var diff uint64
			if deltaA > deltaB {
				diff = deltaA - deltaB
			} else {
				diff = deltaB - deltaA
			}
			if diff <= cfg.DepTolerance {
				return i, int64(deltaA)
			}
		}
	}
	// Anchored: (possibly negative) delay from the previous node's issue.
	return -1, int64(ja.issue) - int64(a[j-1].issue)
}

// setWindowDeps computes, for every node, the last node at least window µops
// behind it, modelling the instruction-window bound on memory parallelism.
func setWindowDeps(nodes []Node, window int) {
	w := -1
	for j := range nodes {
		for w+1 < j && nodes[w+1].OpIndex <= nodes[j].OpIndex-window {
			w++
		}
		nodes[j].WindowDep = w
	}
}

// replayFixed runs one iteration of the model against a fixed-latency
// memory and returns the end cycle.
func replayFixed(m *Model, lat uint64) uint64 {
	ma := MustNewMachine(0, m, &uncore.FixedLatency{Lat: lat})
	return ma.RunIterations(1)
}

// calibrateWindow fits the effective instruction window (in µops) so the
// model reproduces BOTH calibration runs: the node delays already encode
// run A exactly, and the window is the one degree of freedom that
// controls how much memory parallelism survives when latency grows, so it
// is fitted against run B. The detailed core's real window is shaped by
// several interacting resources (ROB, load/store queues, MSHRs,
// reservation stations); fitting collapses them into one number per
// benchmark.
func calibrateWindow(m *Model, cfg BuildConfig, cyclesB uint64) {
	if len(m.Nodes) == 0 {
		return
	}
	maxWin := 4 * cfg.Core.ROB
	best, bestErr := maxWin, uint64(1)<<63
	lo, hi := 4, maxWin
	for lo <= hi {
		mid := (lo + hi) / 2
		setWindowDeps(m.Nodes, mid)
		end := replayFixed(m, cfg.LatB)
		var diff uint64
		if end > cyclesB {
			diff = end - cyclesB
			lo = mid + 1 // too slow: widen the window
		} else {
			diff = cyclesB - end
			hi = mid - 1 // too fast: narrow it
		}
		if diff < bestErr {
			best, bestErr = mid, diff
		}
	}
	// The fit must not break the exact run-A replay: widen until the fast
	// calibration stays within tolerance.
	for ; best <= maxWin; best += best / 4 {
		setWindowDeps(m.Nodes, best)
		end := replayFixed(m, cfg.LatA)
		var diff uint64
		if end > m.CalCycles {
			diff = end - m.CalCycles
		} else {
			diff = m.CalCycles - end
		}
		if diff*20 <= m.CalCycles { // within 5%
			return
		}
	}
	setWindowDeps(m.Nodes, maxWin)
}

// attachSatellites hangs each satellite on its anchor node with an issue
// offset; satellites preceding the first node are attached to node 0 with
// offset 0. split lists the satellites in recording order, so their
// anchors never decrease and the flat array comes out in node order.
func attachSatellites(m *Model, demand []timedReq, sats []satWithAnchor) {
	if len(m.Nodes) == 0 {
		return
	}
	m.Satellites = make([]Satellite, len(sats))
	for i, s := range sats {
		anchor := max(s.anchor, 0)
		base := demand[anchor].issue
		off := uint64(0)
		if s.req.Issue > base {
			off = s.req.Issue - base
		}
		m.Satellites[i] = Satellite{
			VAddr:    s.req.VAddr,
			PC:       s.req.PC,
			Offset:   off,
			Write:    s.req.Write,
			Prefetch: s.req.Prefetch,
		}
		m.Nodes[anchor].SatEnd = i + 1
	}
	// A node without satellites ends where its predecessor's run ends.
	for j := 1; j < len(m.Nodes); j++ {
		m.Nodes[j].SatEnd = max(m.Nodes[j].SatEnd, m.Nodes[j-1].SatEnd)
	}
}

// NodeCount returns the number of demand nodes in the model.
func (m *Model) NodeCount() int { return len(m.Nodes) }

// RequestsPerKiloOp returns demand nodes per 1000 µops, a measure of the
// benchmark's memory intensity as seen below the L1s.
func (m *Model) RequestsPerKiloOp() float64 {
	if m.TraceLen == 0 {
		return 0
	}
	return float64(len(m.Nodes)) * 1000 / float64(m.TraceLen)
}
