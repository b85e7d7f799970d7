// Sampled detailed simulation (SMARTS-style systematic sampling). A
// full detailed run of a long trace is unaffordable; sampling measures
// only a short detailed window out of every sampling unit and
// fast-forwards the gap under the functional-warming mode of the
// detailed core (state updates without timing). Each thread's unit is
// laid out end-aligned:
//
//	|--- fast-forward U-W-D ---|-- warmup W --|-- measure D --|
//
// so the measured window ends exactly at a unit boundary. The warmup
// stretch runs the full detailed model to refill the timing state
// (pipeline occupancy, MSHRs, bus bookings) that fast-forwarding does
// not maintain; the per-window IPCs then aggregate into a mean with a
// Student-t confidence interval and coefficient of variation — an
// estimate with stated precision instead of an exact-but-unaffordable
// number. This is the repo's third simulation fidelity, between
// exact-detailed and BADCO.
package multicore

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/stats"
	"mcbench/internal/telemetry"
)

// SampledConfidence is the confidence level of the interval reported by
// sampled runs.
const SampledConfidence = 0.95

// SamplingSpec configures systematic sampling. The zero value means
// "exact run, no sampling" (Enabled reports false), so it can ride
// along every existing params/request struct without changing their
// meaning. The struct is comparable and participates in memo and dedup
// identities: a sampled result must never satisfy a request for an
// exact one, or vice versa. The JSON form is the server's wire form.
type SamplingSpec struct {
	// Unit is the sampling unit U: one window is measured out of every
	// Unit µops per thread. Zero disables sampling.
	Unit uint64 `json:"unit"`
	// Window is the detailed measurement window D (µops per thread).
	Window uint64 `json:"window"`
	// Warmup is the detailed warmup W run before each window (µops per
	// thread) to refill the timing state the fast-forward path skips.
	Warmup uint64 `json:"warmup,omitempty"`
	// Warm bounds the functional-warming stretch per gap: only the last
	// Warm µops of each inter-sample gap run under the functional path;
	// everything earlier is skipped outright with no state updates
	// (Core.Skip, O(1) whatever the distance). Zero warms the entire gap
	// — the most accurate setting, but its cost still scales with trace
	// length. A bounded Warm makes the work per sampling unit constant,
	// which is where the sublinear long-trace speedup comes from; the
	// caches tolerate it because a window's hit rate is governed by
	// recency, and the warming stretch re-establishes the recent
	// insertions while older cache contents survive the skip untouched.
	Warm uint64 `json:"warm,omitempty"`
}

// Enabled reports whether the spec asks for sampling.
func (s SamplingSpec) Enabled() bool { return s.Unit > 0 }

// Validate checks the spec's internal consistency. The zero (disabled)
// spec is valid. Like Spec.Validate, its errors carry no package prefix.
func (s SamplingSpec) Validate() error {
	if !s.Enabled() {
		if s.Window != 0 || s.Warmup != 0 || s.Warm != 0 {
			return fmt.Errorf("sampling window/warmup set without a unit")
		}
		return nil
	}
	if s.Window == 0 {
		return fmt.Errorf("sampling window must be positive")
	}
	// Compared so that no sum can wrap around: the spec comes from
	// outside input, and Warmup+Window overflows for huge fields.
	if s.Window > s.Unit || s.Warmup > s.Unit-s.Window {
		return fmt.Errorf("sampling warmup %d + window %d exceed unit %d", s.Warmup, s.Window, s.Unit)
	}
	if s.Warm > s.Unit-s.Warmup-s.Window {
		return fmt.Errorf("sampling warm %d exceeds gap %d", s.Warm, s.Unit-s.Warmup-s.Window)
	}
	return nil
}

// String formats the spec compactly (also its identity form in cache
// keys): "u<unit>d<window>w<warmup>" plus "f<warm>" when the warming
// stretch is bounded, or "exact" when disabled.
func (s SamplingSpec) String() string {
	if !s.Enabled() {
		return "exact"
	}
	if s.Warm > 0 {
		return fmt.Sprintf("u%dd%dw%df%d", s.Unit, s.Window, s.Warmup, s.Warm)
	}
	return fmt.Sprintf("u%dd%dw%d", s.Unit, s.Window, s.Warmup)
}

// sampled runs the workload's freshly built detailed cores under
// systematic sampling (Run dispatches here for an enabled spec): per
// sampling unit of spec.Unit µops, fast-forward the gap functionally,
// warm spec.Warmup µops and measure spec.Window µops in full detail.
// quota/spec.Unit full units are sampled (a partial tail unit is not
// simulated at all — that is where the speedup comes from). The estimate
// and its confidence interval are over the per-window IPCs.
func sampled(ctx context.Context, w Workload, policy cache.PolicyName, spec SamplingSpec, cores []*cpu.Core, quota uint64, drv driver) (Result, error) {
	windows := quota / spec.Unit
	if windows == 0 {
		return Result{}, fmt.Errorf("multicore: sampling unit %d exceeds quota %d", spec.Unit, quota)
	}
	steppers := asSteppers(cores)
	n := len(cores)
	gap := spec.Unit - spec.Warmup - spec.Window

	samples := make([][]float64, n)
	for i := range samples {
		samples[i] = make([]float64, 0, windows)
	}
	totalCycles := make([]uint64, n)
	clocks := make([]uint64, n)   // reused per-window clock baseline
	cross := make([]uint64, n)    // per-window boundary-crossing clocks
	target := make([]uint64, n)   // per-window unit boundary
	caps := make([]uint64, n)     // per-window overshoot cap
	weights := make([]float64, n) // recent per-core speed, drives ffInterleaved

	// Calibration prologue: one window-equivalent of detailed execution
	// at the trace start, before the first fast-forward. The functional
	// path replays the detailed path's observed prefetch-drop rate, and
	// that rate only exists once some detailed execution has run — an
	// uncalibrated first gap would issue every trained proposal and
	// over-warm the shared cache in a way later windows never recover
	// from (the LLC is far too large for a warmup stretch to
	// renormalize). The prologue's per-core wall-cycles also seed the
	// speed weights for the first fast-forward's interleaving.
	sp := telemetry.FromContext(ctx)
	if prologue := min(spec.Warmup+spec.Window, gap); prologue > 0 {
		stop := sp.Time(phaseWarmup)
		err := warm(ctx, drv, steppers, prologue)
		stop()
		if err != nil {
			return Result{}, err
		}
		for i, c := range steppers {
			if now := c.Now(); now > 0 {
				weights[i] = float64(prologue) / float64(now)
			}
		}
	}

	// The warmup phase drives the cores to an exact committed-count
	// boundary, halting each there; the measure phase uses the overshoot
	// discipline of the exact run: a core that crosses the unit boundary
	// keeps running — timed, into its own next gap — so the stragglers'
	// window tails see the same shared-hierarchy contention a full
	// detailed run would produce, halting before the next warmup region so
	// the window layout stays aligned. Overshot µops are simply skipped by
	// the next fast-forward.
	for k := uint64(0); k < windows; k++ {
		base := k * spec.Unit
		stopFF := sp.Time(phaseFastForward)
		// A bounded warming stretch skips the gap's prefix outright (no
		// state updates, O(1)) and warms only the last spec.Warm µops.
		if spec.Warm > 0 && spec.Warm < gap {
			skipTo := base + gap - spec.Warm
			for _, c := range cores {
				if cm := c.Committed(); cm < skipTo {
					c.Skip(skipTo - cm)
				}
			}
		}
		// Fast-forward the rest of the gap (functional warming, clocks
		// frozen), interleaved in speed-proportional chunks: the shared
		// cache has no notion of time on this path, so insertion *order*
		// is the only lever for approximating the per-cycle mixing of a
		// timed execution — sequential whole-gap runs would weight a slow
		// core's pollution as heavily as a fast core's.
		if err := ffInterleaved(ctx, cores, weights, base+gap); err != nil {
			stopFF()
			return Result{}, err
		}
		// Resynchronize the local clocks before timing resumes: the shared
		// uncore books bus/DRAM slots in absolute time, so a core whose
		// clock fell behind would otherwise pay the skew as fake queueing
		// behind the other cores' bookings.
		syncClocks(cores, steppers)
		stopFF()
		// Detailed warmup to the window start.
		if spec.Warmup > 0 {
			stopW := sp.Time(phaseWarmup)
			err := warm(ctx, drv, steppers, base+gap+spec.Warmup)
			stopW()
			if err != nil {
				return Result{}, err
			}
			// Warmups cost different wall-cycles per core (a slow core's
			// warmup runs long after the fast ones halted), so the clocks
			// have drifted apart again; re-sync so every core measures from
			// a common time origin.
			syncClocks(cores, steppers)
		}
		// Measure the window: per-core cycles from its own clock at the
		// window start to its crossing of the unit boundary.
		for i, c := range steppers {
			clocks[i] = c.Now()
			target[i], caps[i] = base+spec.Unit, base+spec.Unit+gap
		}
		stopM := sp.Time(phaseMeasure)
		err := drv(ctx, steppers, target, caps, cross)
		stopM()
		if err != nil {
			return Result{}, err
		}
		for i := range steppers {
			cyc := cross[i] - clocks[i]
			totalCycles[i] += cyc
			ipc := 0.0
			if cyc > 0 {
				ipc = float64(spec.Window) / float64(cyc)
				weights[i] = ipc
			}
			samples[i] = append(samples[i], ipc)
		}
	}

	res := Result{
		Workload:     append(Workload(nil), w...),
		Policy:       policy,
		IPC:          make([]float64, n),
		Cycles:       totalCycles,
		Instructions: windows * spec.Window,
		Windows:      int(windows),
		CIHalf:       make([]float64, n),
		CV:           make([]float64, n),
		Samples:      samples,
	}
	cpis := make([]float64, windows)
	for i := range samples {
		for k, ipc := range samples[i] {
			cpi := 0.0
			if ipc > 0 {
				cpi = 1 / ipc
			}
			cpis[k] = cpi
		}
		meanCPI, halfCPI := stats.MeanCI(cpis, SampledConfidence)
		res.IPC[i] = 1 / meanCPI
		res.CIHalf[i] = halfCPI / (meanCPI * meanCPI)
		res.CV[i] = stats.CoefVar(cpis)
	}
	return res, nil
}

// syncClocks advances every core's local clock to the fleet maximum.
func syncClocks(cores []*cpu.Core, steppers []stepper) {
	var sync uint64
	for _, c := range steppers {
		if now := c.Now(); now > sync {
			sync = now
		}
	}
	for _, c := range cores {
		c.SyncClock(sync)
	}
}

// ffChunk is the fast-forward batch size of the fastest core in a
// speed-weighted interleaving round; slower cores advance in
// proportionally smaller batches (at least one µop, so every core makes
// progress each round).
const ffChunk = 256

// ffInterleaved advances every core to tgt committed µops under
// functional warming, round-robin in chunks proportional to each core's
// recent timed speed. The functional path is clockless, so the order of
// shared-cache insertions is the only fidelity lever: per-µop
// alternation would weight every core equally, but a timed execution
// interleaves per-*cycle* — a core running 8× slower contributes 8×
// fewer insertions per unit time. Chunking by speed reproduces that
// mixture. Cores with no speed estimate (a zero weight) advance at the
// fastest core's pace. It polls the context once per round and returns
// ctx.Err() when it is cancelled.
func ffInterleaved(ctx context.Context, cores []*cpu.Core, weights []float64, tgt uint64) error {
	done := ctx.Done()
	wmax := 0.0
	for _, w := range weights {
		if w > wmax {
			wmax = w
		}
	}
	for {
		if done != nil && cancelled(done) {
			return ctx.Err()
		}
		active := false
		for i, c := range cores {
			cm := c.Committed()
			if cm >= tgt {
				continue
			}
			n := uint64(ffChunk)
			if w := weights[i]; w > 0 && wmax > 0 {
				n = uint64(ffChunk*w/wmax + 0.5)
				if n == 0 {
					n = 1
				}
			}
			if n > tgt-cm {
				n = tgt - cm
			}
			c.FastForward(n)
			if c.Committed() < tgt {
				active = true
			}
		}
		if !active {
			return nil
		}
	}
}
