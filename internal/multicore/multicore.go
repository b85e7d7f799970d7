// Package multicore runs multiprogrammed workloads: K independent threads
// (one benchmark each) on K cores sharing one uncore, using either the
// detailed core model (package cpu) or BADCO machines (package badco).
//
// Scheduling follows the paper's setup: cores interleave on a
// smallest-local-clock-first discipline (approximating the round-robin
// uncore arbitration), each thread that finishes its instruction quota is
// restarted until every thread has executed at least the quota, and IPC
// is measured on each thread's first quota of instructions.
package multicore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"mcbench/internal/badco"
	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/telemetry"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// Phase names charged to a telemetry span carried by the context (see
// telemetry.NewContext). Hooks sit at phase boundaries — trace
// resolution, model building, warmup, fast-forward, the measured
// window — never inside the per-µop loops, so an attached span costs
// a mutex op per phase and an absent one (nil) costs a context lookup.
const (
	phaseTraceLoad   = "trace_load"
	phaseModelBuild  = "model_build"
	phaseWarmup      = "warmup"
	phaseFastForward = "fast_forward"
	phaseMeasure     = "measure"
)

// TraceSource resolves benchmark names to traces at the simulation
// boundary. It is satisfied by bench.Provider (a bench.Source bound to a
// trace length) and by TraceMap; implementations must be safe for
// concurrent use. The drivers below resolve whole workloads up front and
// then run on bare *trace.Trace values, so the allocation-free kernel
// hot paths never see the indirection.
type TraceSource interface {
	// Trace returns the named benchmark's trace, building or loading it
	// on first use.
	Trace(ctx context.Context, name string) (*trace.Trace, error)
	// Release hints that the caller is done with the named benchmark's
	// trace; a memoizing source drops it to bound resident memory.
	Release(name string)
}

// TraceMap adapts an eagerly-built trace map to the TraceSource
// boundary, for callers that already hold all their traces (tests, the
// co-phase machinery). Release is a no-op.
type TraceMap map[string]*trace.Trace

// Trace looks the benchmark up in the map.
func (m TraceMap) Trace(_ context.Context, name string) (*trace.Trace, error) {
	tr, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("multicore: no trace for benchmark %q", name)
	}
	return tr, nil
}

// Release is a no-op: the map owns its traces.
func (m TraceMap) Release(string) {}

// Workload names the benchmarks co-scheduled on the K cores; duplicates
// are allowed (the same benchmark may run on several cores).
type Workload []string

// String formats the workload compactly.
func (w Workload) String() string {
	s := ""
	for i, b := range w {
		if i > 0 {
			s += "+"
		}
		s += b
	}
	return s
}

// Engine selects the core model a run simulates.
type Engine int

const (
	// Detailed is the cycle-level out-of-order core model (package cpu).
	Detailed Engine = iota
	// BADCO is the behavioural approximate core model (package badco).
	BADCO
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case Detailed:
		return "detailed"
	case BADCO:
		return "badco"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Spec is one run configuration: the engine, the LLC policy, the
// per-thread quota of measured µops (0: one trace length) and the
// measurement protocol. With Warmup and Sampling zero the run measures
// exactly from reset; a positive Warmup measures exactly after that many
// µops per thread; an enabled Sampling estimates the steady-state IPC
// under systematic sampling (see SamplingSpec). Spec is comparable.
type Spec struct {
	Engine   Engine
	Policy   cache.PolicyName
	Quota    uint64
	Warmup   uint64
	Sampling SamplingSpec
}

// Protocol renders the spec's measurement protocol, the part of a
// result's identity that decides whether it can be reused: sep+"w<N>"
// for a warmup of N µops and sep+"smp"+Sampling.String() for a sampled
// run, in that order; an exact run renders as "". The serve dedup keys
// of ad-hoc simulate and sweep jobs take their protocol token from it.
func (s Spec) Protocol(sep string) string {
	var p string
	if s.Warmup > 0 {
		p = sep + "w" + strconv.FormatUint(s.Warmup, 10)
	}
	if s.Sampling.Enabled() {
		p += sep + "smp" + s.Sampling.String()
	}
	return p
}

// Validate checks the spec's rules, resolving a zero Quota to traceLen.
// It is meant for the boundaries that take a spec from outside input
// (see Check). Beyond the rules Run enforces itself (see runnable), the
// policy must be known and the warmup must fit in the quota: a warmup
// beyond it almost always means swapped arguments, so it is rejected
// rather than run as a measurement that mostly discards work. The kernel
// itself runs such a spec, for callers that deliberately warm a long
// prefix before a short measured sample. The errors carry no package
// prefix, so the library, the server and the CLI each report them under
// their own.
func (s Spec) Validate(traceLen int) error {
	if _, err := cache.NewPolicy(s.Policy, 0); err != nil {
		return err
	}
	if err := s.runnable(); err != nil {
		return err
	}
	q := s.Quota
	if q == 0 {
		q = uint64(traceLen)
	}
	if s.Warmup > q {
		return fmt.Errorf("warmup %d %w %d", s.Warmup, ErrWarmupOverQuota, q)
	}
	return nil
}

// Errors that front ends attach a hint to, matched with errors.Is.
var (
	ErrUnknownBenchmark = errors.New("unknown benchmark")
	ErrWarmupOverQuota  = errors.New("exceeds the instruction quota")
)

// MaxCores bounds the machine of an ad-hoc run, well above the paper's
// 8 cores: every core has its own caches and pipeline, so without a
// bound one request could replicate a benchmark past the host's memory.
const MaxCores = 64

// Check holds the rules of one ad-hoc run. The one ad-hoc run path,
// experiments.Lab.Simulate, applies them, and so does the server's
// validation before it enqueues a job. The provider's trace length must
// be positive and the spec must pass Validate at it. Each workload is
// resolved against cores: zero, or the workload's own width, keeps it
// as given, and a single benchmark is replicated onto all cores; any
// other width, an empty workload and a machine beyond MaxCores are
// errors. Every name must be in the provider's source. Check returns
// the resolved workloads and the distinct names in first-use order, the
// model-build list of a BADCO run. Like Validate's, its errors carry no
// package prefix.
func Check(prov bench.Provider, spec Spec, workloads [][]string, cores int) ([]Workload, []string, error) {
	if prov.Len() <= 0 {
		return nil, nil, fmt.Errorf("non-positive trace length %d", prov.Len())
	}
	if err := spec.Validate(prov.Len()); err != nil {
		return nil, nil, err
	}
	if cores < 0 || cores > MaxCores {
		return nil, nil, fmt.Errorf("cores %d outside [0, %d]", cores, MaxCores)
	}
	used := map[string]bool{} // known names; true once in distinct
	for _, n := range prov.Names() {
		used[n] = false
	}
	var distinct []string
	ws := make([]Workload, len(workloads))
	for i, w := range workloads {
		switch {
		case len(w) == 0 || len(w) > MaxCores:
			return nil, nil, fmt.Errorf("workload of %d threads outside [1, %d]", len(w), MaxCores)
		case cores == 0 || cores == len(w):
			ws[i] = slices.Clone(Workload(w))
		case len(w) == 1:
			ws[i] = slices.Repeat(Workload(w), cores)
		default:
			return nil, nil, fmt.Errorf("workload has %d threads but %d cores were given", len(w), cores)
		}
		for _, name := range w {
			switch u, ok := used[name]; {
			case !ok:
				return nil, nil, fmt.Errorf("%s: %w %q", prov.Source().Name(), ErrUnknownBenchmark, name)
			case !u:
				used[name] = true
				distinct = append(distinct, name)
			}
		}
	}
	return ws, distinct, nil
}

// runnable checks what Run cannot execute at all: the engine is known,
// and a spec with any sampling field set carries a valid SamplingSpec,
// runs on the detailed engine and has no whole-run warmup (the sampling
// spec's own warmup plays that role per window).
func (s Spec) runnable() error {
	if s.Engine != Detailed && s.Engine != BADCO {
		return fmt.Errorf("unknown engine %v", s.Engine)
	}
	if s.Sampling == (SamplingSpec{}) {
		return nil
	}
	if err := s.Sampling.Validate(); err != nil {
		return err
	}
	if s.Engine != Detailed {
		return fmt.Errorf("sampling requires the %s engine (BADCO is already fast; sample the slow simulator)", Detailed)
	}
	if s.Warmup > 0 {
		return fmt.Errorf("sampling and warmup are mutually exclusive (the sampling spec's warmup warms each window)")
	}
	return nil
}

// Result is the outcome of simulating one workload under one Spec.
type Result struct {
	Workload Workload
	Policy   cache.PolicyName
	// IPC per core. An exact run measures each thread's first quota µops
	// (after the warmup, if any). A sampled run reports the inverse of
	// the mean per-window CPI: every window measures the same µop count,
	// so the mean CPI is exactly total measured cycles over total
	// measured µops, the unbiased ratio estimate (averaging per-window
	// IPCs directly would be Jensen-biased upward).
	IPC []float64
	// Cycles per core spent on the measured µops.
	Cycles []uint64
	// Instructions is the measured µops per thread: the quota, or
	// windows × window length for a sampled run.
	Instructions uint64

	// Windows, CIHalf, CV and Samples describe a sampled run's estimate;
	// exact runs leave them zero and nil.
	//
	// Windows is the number of measured windows per thread.
	Windows int
	// CIHalf is the per-core half-width of the SampledConfidence
	// interval around IPC: the Student-t interval on the mean window
	// CPI, mapped to the IPC scale by the delta method. Zero when only
	// one window was measured.
	CIHalf []float64
	// CV is the per-core coefficient of variation of the per-window
	// CPIs (the cv SMARTS-style sampling reports).
	CV []float64
	// Samples holds the raw per-window IPCs, indexed [core][window].
	Samples [][]float64
}

// CPI returns the per-core cycles per instruction. A core with zero IPC
// (it never committed an instruction) has infinite CPI.
func (r Result) CPI(core int) float64 {
	if r.IPC[core] == 0 {
		return math.Inf(1)
	}
	return 1 / r.IPC[core]
}

// stepper abstracts the two core models for the interleaving driver.
type stepper interface {
	Step() uint64
	// StepUntil runs a batch and returns Now and Committed after it.
	StepUntil(limit, quota uint64) (now, committed uint64)
	Now() uint64
	Committed() uint64
}

// driver advances the cores on the smallest-local-clock-first
// discipline until each core i has committed target[i] µops, recording
// the local clock at which it crossed in cross[i]. A core that crosses
// keeps running, timed, until it commits cap[i] (cap[i] >= target[i])
// and then halts; the driver returns once every core has crossed. It
// returns early with ctx.Err() when the context is cancelled.
//
// The three protocol stages differ only in cap: the measured quota runs
// with cap = never (a crossed thread is restarted, as in the paper),
// a warmup boundary with cap = target (every core halts
// exactly at it), and a sampled window with cap = the start of the next
// warmup region (overshooters stay timed but keep the windows aligned).
type driver func(ctx context.Context, cores []stepper, target, cap, cross []uint64) error

// never is a clock/quota bound that no simulation reaches.
const never = ^uint64(0)

// cancelCheckMask throttles context polling in the batch loop: while
// several cores share the pick, batches are short and the cancellation
// check (a non-blocking channel receive) runs once every
// cancelCheckMask+1 batches, keeping it off the per-batch fast path while
// still bounding the reaction latency to microseconds.
const cancelCheckMask = 1023

// soloChunkCycles is the clock-batch size of a core alone in the pick
// set (a single-core run, or the last core still short of a boundary):
// with no runner-up to bound its batch, the driver runs it in fixed-size
// clock windows and polls the context once per window, so cancellation
// stays responsive. StepUntil is resumable, so chunking does not change
// results.
const soloChunkCycles = 1 << 18

// cancelled polls done without blocking. The batch loop calls it only
// on a solo batch or once every cancelCheckMask+1 batches, so the
// per-batch fast path stays a couple of compares; the fast-forward calls
// it once per round.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// drive is the production driver. It produces the same schedule as the
// per-step reference driver (driveReference) but dispatches whole
// batches: a core's local clock never decreases and the other cores'
// clocks cannot change while it runs, so the reference loop would keep
// re-picking the current minimum-clock core until its clock reaches the
// runner-up's. StepUntil runs that whole stretch as one tight
// monomorphic loop inside the core model — one interface dispatch and
// one scheduling decision per batch instead of per simulated µop.
// Between batches a single pass over the cached clocks carries the pick
// and the runner-up through a 2-element tournament; a halted core is
// parked at clock never, so it can never win the pick.
func drive(ctx context.Context, cores []stepper, target, cap, cross []uint64) error {
	n := len(cores)
	done := ctx.Done()
	reached := make([]bool, n)
	clocks := make([]uint64, n)
	remaining := n
	for i, c := range cores {
		clocks[i] = c.Now()
		if cm := c.Committed(); cm >= target[i] {
			reached[i] = true
			cross[i] = clocks[i]
			remaining--
			if cm >= cap[i] {
				clocks[i] = never
			}
		}
	}
	for batch := 0; remaining > 0; batch++ {
		// One pass, ties to the lower index: m is the core the per-step
		// driver would pick, o the runner-up it would pick next.
		m, o := 0, -1
		for i := 1; i < n; i++ {
			switch {
			case clocks[i] < clocks[m]:
				m, o = i, m
			case o < 0 || clocks[i] < clocks[o]:
				o = i
			}
		}
		solo := o < 0 || clocks[o] == never
		if done != nil && (solo || batch&cancelCheckMask == 0) && cancelled(done) {
			return ctx.Err()
		}
		// Core m keeps the pick while its clock is below the runner-up's
		// — or equal to it, when m wins the lower-index tie-break.
		limit := clocks[m] + soloChunkCycles
		if !solo {
			limit = clocks[o]
			if m < o {
				limit++
			}
		}
		// A core that has not crossed its target stops its batch at the
		// crossing so the crossing cycle is captured; afterwards it runs
		// on to its cap.
		quota := cap[m]
		if !reached[m] {
			quota = target[m]
		}
		now, cm := cores[m].StepUntil(limit, quota)
		clocks[m] = now
		if quota == never {
			continue // crossed, never halts: nothing left to record
		}
		if !reached[m] && cm >= target[m] {
			reached[m] = true
			cross[m] = clocks[m]
			remaining--
		}
		if cm >= cap[m] {
			clocks[m] = never
		}
	}
	return nil
}

// warm drives every core to boundary committed µops and halts it there,
// freezing the machine with every thread at — for the detailed model,
// exactly at — the boundary.
func warm(ctx context.Context, drv driver, cores []stepper, boundary uint64) error {
	b := make([]uint64, len(cores))
	for i := range b {
		b[i] = boundary
	}
	return drv(ctx, cores, b, b, make([]uint64, len(cores)))
}

// Run simulates the workload under the spec. Detailed runs resolve their
// traces through the source at this boundary — lazily built on first
// use, and not released here: the caller owns the retention policy.
// BADCO runs replay the models, keyed by benchmark name, and their quota
// must be a multiple of the model trace length. The source the engine
// does not use may be nil. A zero Spec.Quota defaults to the first
// benchmark's trace length. A cancelled context aborts the simulation
// and returns ctx.Err().
func Run(ctx context.Context, w Workload, spec Spec, traces TraceSource, models map[string]*badco.Model) (Result, error) {
	return run(ctx, w, spec, traces, models, drive)
}

// run is Run under an explicit driver, so the golden tests can run the
// per-step reference driver through the identical construction path.
func run(ctx context.Context, w Workload, spec Spec, traces TraceSource, models map[string]*badco.Model, drv driver) (Result, error) {
	if err := spec.runnable(); err != nil {
		return Result{}, fmt.Errorf("multicore: %w", err)
	}
	cores, detailed, quota, err := build(ctx, w, spec, traces, models)
	if err != nil {
		return Result{}, err
	}
	if spec.Sampling.Enabled() {
		return sampled(ctx, w, spec.Policy, spec.Sampling, detailed, cores, quota, drv)
	}
	if spec.Warmup > 0 {
		stop := telemetry.FromContext(ctx).Time(phaseWarmup)
		err := warm(ctx, drv, cores, spec.Warmup)
		stop()
		if err != nil {
			return Result{}, err
		}
	}
	return measure(ctx, w, spec.Policy, cores, quota, drv)
}

// measure drives the cores quota µops beyond their current commit counts
// and reports each core's cycles from its current clock: from reset for
// an exact run, from the warmup boundary for a warmed run.
func measure(ctx context.Context, w Workload, policy cache.PolicyName, cores []stepper, quota uint64, drv driver) (Result, error) {
	if quota == 0 {
		return Result{}, fmt.Errorf("multicore: zero quota")
	}
	n := len(cores)
	target, caps, cycles, start := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i, c := range cores {
		target[i] = c.Committed() + quota
		caps[i] = never
		start[i] = c.Now()
	}
	stop := telemetry.FromContext(ctx).Time(phaseMeasure)
	err := drv(ctx, cores, target, caps, cycles)
	stop()
	if err != nil {
		return Result{}, err
	}
	for i := range cycles {
		cycles[i] -= start[i]
	}
	return assemble(w, policy, cycles, quota), nil
}

// build constructs one stepper per workload slot over a shared uncore:
// detailed cores over the slots' traces, or BADCO machines over their
// models. It is the single construction path for plain, warmed and
// sampled simulations under either engine, so they cannot drift apart;
// detailed holds the detailed cores (nil under BADCO), which sampled
// drives. A zero quota defaults to the first slot's trace length. A
// BADCO machine commits in node-sized chunks, and its committed count is
// exact at iteration boundaries, which is where quotas land (quota =
// trace length).
func build(ctx context.Context, w Workload, spec Spec, traces TraceSource, models map[string]*badco.Model) (cores []stepper, detailed []*cpu.Core, quota uint64, err error) {
	if len(w) == 0 {
		return nil, nil, 0, fmt.Errorf("multicore: empty workload")
	}
	unc, err := uncore.New(uncore.ConfigFor(len(w), spec.Policy))
	if err != nil {
		return nil, nil, 0, err
	}
	quota = spec.Quota
	cores = make([]stepper, len(w))
	sp := telemetry.FromContext(ctx)
	for i, name := range w {
		var n int
		if spec.Engine == Detailed {
			stop := sp.Time(phaseTraceLoad)
			tr, err := traces.Trace(ctx, name)
			stop()
			if err != nil {
				return nil, nil, 0, err
			}
			core, err := cpu.New(i, cpu.DefaultConfig(), tr, unc)
			if err != nil {
				return nil, nil, 0, err
			}
			cores[i], n = core, tr.Len()
			detailed = append(detailed, core)
		} else {
			m, ok := models[name]
			if !ok {
				return nil, nil, 0, fmt.Errorf("multicore: no model for benchmark %q", name)
			}
			ma, err := badco.NewMachine(i, m, unc)
			if err != nil {
				return nil, nil, 0, err
			}
			cores[i], n = ma, m.TraceLen
		}
		if quota == 0 {
			quota = uint64(n)
		}
	}
	return cores, detailed, quota, nil
}

func assemble(w Workload, policy cache.PolicyName, cycles []uint64, quota uint64) Result {
	r := Result{
		Workload:     append(Workload(nil), w...),
		Policy:       policy,
		IPC:          make([]float64, len(w)),
		Cycles:       cycles,
		Instructions: quota,
	}
	for i, cyc := range cycles {
		if cyc > 0 {
			r.IPC[i] = float64(quota) / float64(cyc)
		}
	}
	return r
}

// Sweep runs Run over many workloads under one spec in parallel on the
// shared simulation budget (see RunBounded); the results are indexed
// like workloads. Traces resolve lazily through the source (concurrent
// workloads sharing a benchmark share one build) and stay resident for
// the caller to release: a sweep touches each distinct benchmark many
// times, so releasing per workload would thrash. Cancelling the context
// stops dispatching new workloads, interrupts the running ones, and
// returns ctx.Err().
func Sweep(ctx context.Context, workloads []Workload, spec Spec, traces TraceSource, models map[string]*badco.Model) ([]Result, error) {
	results := make([]Result, len(workloads))
	errs := make([]error, len(workloads))
	if err := RunBounded(ctx, len(workloads), func(i int) {
		results[i], errs[i] = Run(ctx, workloads[i], spec, traces, models)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// simSem bounds concurrent simulation work process-wide. All sweeps
// draw slots from this one semaphore, so campaign-level parallelism
// (several sweeps warmed at once) composes with per-sweep parallelism
// without multiplying: total live simulations stay at maxParallel()
// rather than workers x maxParallel().
var simSem = make(chan struct{}, maxParallel())

// RunBounded invokes fn(i) for every i in [0, n), drawing on the shared
// process-wide simulation budget. The slot is acquired before the
// goroutine is spawned, so at no point do more goroutines exist than may
// run — a sweep over thousands of workloads never piles up idle
// goroutines waiting for a slot. fn must not call RunBounded itself
// (slot-holders waiting on slots would deadlock).
//
// Cancelling the context stops dispatching new indices; RunBounded then
// waits for the already-running fn calls (which should observe the same
// context) before returning ctx.Err(). It never leaks goroutines.
func RunBounded(ctx context.Context, n int, fn func(int)) error {
	var wg sync.WaitGroup
	done := ctx.Done()
	var err error
	for i := 0; i < n; i++ {
		if done == nil {
			simSem <- struct{}{}
		} else {
			// Check cancellation before contending for a slot: a select
			// with both cases ready picks randomly, and a cancelled
			// campaign must dispatch nothing further.
			select {
			case <-done:
				err = ctx.Err()
			default:
			}
			if err == nil {
				select {
				case <-done:
					err = ctx.Err()
				case simSem <- struct{}{}:
				}
			}
			if err != nil {
				break
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-simSem }()
			fn(i)
		}(i)
	}
	wg.Wait()
	// Only cancellation observed during dispatch fails the call: if every
	// index was dispatched and ran, the work is complete regardless of a
	// cancellation that raced the finish (an interrupted fn surfaces its
	// own ctx error through the caller's per-index results). Discarding a
	// fully computed sweep here would force an interrupted-then-resumed
	// campaign to redo work it already finished.
	return err
}

// BuildModel constructs one benchmark's BADCO model. The trace is
// resolved through the source just before its two calibration runs and
// released right after the model is built; the context's span is
// charged the trace load and the model build as separate phases.
func BuildModel(ctx context.Context, traces TraceSource, name string, cfg badco.BuildConfig) (*badco.Model, error) {
	sp := telemetry.FromContext(ctx)
	stop := sp.Time(phaseTraceLoad)
	tr, err := traces.Trace(ctx, name)
	stop()
	if err != nil {
		return nil, fmt.Errorf("multicore: building model %s: %w", name, err)
	}
	defer traces.Release(name)
	defer sp.Time(phaseModelBuild)()
	m, err := badco.Build(tr, cfg)
	if err != nil {
		return nil, fmt.Errorf("multicore: building model %s: %w", name, err)
	}
	return m, nil
}
