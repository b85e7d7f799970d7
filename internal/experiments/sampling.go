package experiments

// The sampling-accuracy study: how much detailed-simulation time does
// systematic sampling buy, and what does it cost in IPC accuracy? Each
// point of the sweep runs the singles ensemble under one SamplingSpec on
// traces samplingTraceScale× the campaign length — the regime sampling
// exists for — and compares the estimate against two exact referents:
//
//   - a cold full run (the speedup referent: the cost a user would
//     actually pay without sampling), and
//   - a warmed exact run (the error baseline: systematic sampling
//     estimates steady-state IPC by construction, and on cache-friendly
//     workloads the cold run's start-up transient is itself a
//     measurable bias — comparing against it would charge the estimator
//     for being right).
//
// The table reports, per spec: window count, detailed fraction, mean
// relative IPC error vs the warmed baseline, the rate at which the
// reported confidence interval covers that baseline, and the measured
// wall-clock speedup over the cold full runs.

import (
	"context"
	"fmt"
	"math"
	"time"

	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/multicore"
)

func init() {
	Register(Experiment{
		Name:     "sampling-accuracy",
		Synopsis: "sampled-simulation IPC error and speedup vs sampling rate (long traces)",
		Group:    GroupExtension,
		// No Requests: the study runs on stretched traces outside the
		// lab's warm plan, and its exact baselines are deliberately not
		// cached (the timings are the experiment).
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.samplingAccuracyTable(ctx)
		},
	})
}

// samplingTraceScale stretches the campaign trace length for the study:
// sampling is pointless on traces short enough to simulate in full, so
// the sweep runs at 10× where the sublinear cost structure shows.
const samplingTraceScale = 10

// samplingEnsembleSize caps the singles ensemble the study averages
// over.
const samplingEnsembleSize = 6

// samplingSpecs is the swept schedule: the sampling rate coarsens left
// to right at a fixed detailed window, and the last point adds bounded
// functional warming (the experimental speed dial — see the multicore
// package's accuracy notes for its bias modes).
var samplingSpecs = []multicore.SamplingSpec{
	{Unit: 10000, Window: 2000, Warmup: 2000},
	{Unit: 20000, Window: 2000, Warmup: 2000},
	{Unit: 50000, Window: 2000, Warmup: 2000},
	{Unit: 50000, Window: 2000, Warmup: 2000, Warm: 16000},
}

// SamplingPoint is one spec of the sampling-accuracy sweep, aggregated
// over the singles ensemble.
type SamplingPoint struct {
	Spec     multicore.SamplingSpec
	Windows  int     // sampled windows per run
	DetFrac  float64 // fraction of µops simulated in detail (warmup+window)/unit
	MeanErr  float64 // mean |IPC error| vs the warmed exact baseline
	Covered  int     // runs whose CI contained the warmed baseline IPC
	Total    int     // runs in the ensemble
	Speedup  float64 // sum(cold exact time) / sum(sampled time)
	ColdGap  float64 // mean |cold - warmed|/warmed: the transient the cold referent carries
	Workload []string
}

// samplingEnsemble picks the singles the study averages over: a
// preferred spread of memory behaviours when the source has them, padded
// from the source's own names otherwise (scaled sources use synthetic
// names).
func (l *Lab) samplingEnsemble() []multicore.Workload {
	preferred := []string{"mcf", "gcc", "soplex", "hmmer", "libquantum", "povray"}
	have := make(map[string]bool, len(l.Names()))
	for _, n := range l.Names() {
		have[n] = true
	}
	var names []string
	for _, n := range preferred {
		if have[n] && len(names) < samplingEnsembleSize {
			names = append(names, n)
		}
	}
	for _, n := range l.Names() {
		if len(names) >= samplingEnsembleSize {
			break
		}
		dup := false
		for _, m := range names {
			dup = dup || m == n
		}
		if !dup {
			names = append(names, n)
		}
	}
	ws := make([]multicore.Workload, len(names))
	for i, n := range names {
		ws[i] = multicore.Workload{n}
	}
	return ws
}

// SamplingAccuracy runs the sweep. Exact baselines are computed once per
// workload and shared across every spec point; all runs of a phase
// execute under the usual simulation-slot bound, with per-run wall time
// summed so the speedup column compares like against like (both sides
// see the same contention).
func (l *Lab) SamplingAccuracy(ctx context.Context) ([]SamplingPoint, error) {
	n := samplingTraceScale * l.cfg.TraceLen
	prov := bench.At(l.src, n)
	ws := l.samplingEnsemble()
	if len(ws) == 0 {
		return nil, fmt.Errorf("experiments: sampling-accuracy: source has no benchmarks")
	}
	warm := samplingSpecs[0].Unit
	for _, s := range samplingSpecs {
		if s.Unit > warm {
			warm = s.Unit
		}
	}

	// Phase 1: the exact referents, one cold (timed) and one warmed
	// (error baseline) per workload.
	coldIPC := make([][]float64, len(ws))
	warmIPC := make([][]float64, len(ws))
	coldDur := make([]time.Duration, len(ws))
	errs := make([]error, len(ws))
	if err := multicore.RunBounded(ctx, len(ws), func(i int) {
		start := time.Now()
		cold, err := multicore.Run(ctx, ws[i], multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU}, prov, nil)
		coldDur[i] = time.Since(start)
		if err != nil {
			errs[i] = err
			return
		}
		coldIPC[i] = cold.IPC
		warmed, err := multicore.Run(ctx, ws[i], multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU, Warmup: warm, Quota: uint64(n) - warm}, prov, nil)
		if err != nil {
			errs[i] = err
			return
		}
		warmIPC[i] = warmed.IPC
	}); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: sampling-accuracy baseline %s: %w", ws[i], err)
		}
	}
	var coldTotal time.Duration
	var coldGap float64
	for i := range ws {
		coldTotal += coldDur[i]
		coldGap += math.Abs(coldIPC[i][0]-warmIPC[i][0]) / warmIPC[i][0]
	}
	coldGap /= float64(len(ws))

	// Phase 2: the sampled runs, one per (spec, workload).
	points := make([]SamplingPoint, len(samplingSpecs))
	for k, spec := range samplingSpecs {
		pt := SamplingPoint{
			Spec:    spec,
			DetFrac: float64(spec.Window+spec.Warmup) / float64(spec.Unit),
			ColdGap: coldGap,
		}
		for _, w := range ws {
			pt.Workload = append(pt.Workload, w.String())
		}
		res := make([]multicore.Result, len(ws))
		dur := make([]time.Duration, len(ws))
		if err := multicore.RunBounded(ctx, len(ws), func(i int) {
			start := time.Now()
			r, err := multicore.Run(ctx, ws[i], multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU, Sampling: spec}, prov, nil)
			dur[i] = time.Since(start)
			if err != nil {
				errs[i] = err
				return
			}
			res[i] = r
		}); err != nil {
			return nil, err
		}
		var sampledTotal time.Duration
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("experiments: sampling-accuracy %s %s: %w", spec, ws[i], err)
			}
			sampledTotal += dur[i]
			pt.Windows = res[i].Windows
			diff := math.Abs(res[i].IPC[0] - warmIPC[i][0])
			pt.MeanErr += diff / warmIPC[i][0]
			pt.Total++
			if diff <= res[i].CIHalf[0] {
				pt.Covered++
			}
		}
		pt.MeanErr /= float64(pt.Total)
		pt.Speedup = float64(coldTotal) / float64(sampledTotal)
		points[k] = pt
	}
	return points, nil
}

// samplingAccuracyTable renders the sweep.
func (l *Lab) samplingAccuracyTable(ctx context.Context) (*Table, error) {
	points, err := l.SamplingAccuracy(ctx)
	if err != nil {
		return nil, err
	}
	n := samplingTraceScale * l.cfg.TraceLen
	t := &Table{
		Title: fmt.Sprintf("Extension: sampled-simulation accuracy vs rate (singles, LRU, %d-µop traces)", n),
		Columns: []string{"spec", "windows", "detailed", "mean |err|",
			"CI cover", "speedup"},
		Notes: []string{
			"error and coverage are measured against a warmed exact run: systematic",
			"sampling estimates steady-state IPC, and the cold run's start-up transient",
			fmt.Sprintf("(mean %.1f%% here) would otherwise be charged to the estimator;", 100*points[0].ColdGap),
			"speedup is wall-clock vs the cold full runs (the cost sampling avoids);",
			"the f-suffixed point bounds functional warming of the skipped gap — the",
			"experimental speed dial, with the bias modes documented in internal/multicore",
		},
	}
	for _, p := range points {
		t.AddRow(p.Spec.String(), fmt.Sprint(p.Windows),
			fmt.Sprintf("%.1f%%", 100*p.DetFrac),
			fmt.Sprintf("%.2f%%", 100*p.MeanErr),
			fmt.Sprintf("%d/%d", p.Covered, p.Total),
			f2(p.Speedup)+"x")
	}
	return t, nil
}
