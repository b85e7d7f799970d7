package mcbench_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"mcbench/internal/badco"
	"mcbench/internal/bpred"
	"mcbench/internal/cache"
	"mcbench/internal/cluster"
	"mcbench/internal/cophase"
	"mcbench/internal/experiments"
	"mcbench/internal/multicore"
	"mcbench/internal/profile"
	"mcbench/internal/sampling"
	"mcbench/internal/telemetry"
	"mcbench/internal/trace"
)

// The benchmarks regenerate every table and figure of the paper at the
// quick scale (reduced traces, subsampled populations) so that a full
// `go test -bench=.` finishes in minutes while preserving the shapes the
// paper reports. Use `mcbench` (cmd/mcbench) without -quick for the
// paper-scale campaign.
//
// Each benchmark prints its table once, so the -bench output doubles as a
// results report.

var bctx = context.Background()

// simCtx carries a telemetry span the way the lab's product runs do, so
// the simulator micro-benchmarks time the instrumented kernel path (the
// span is built once, outside the timed loop). Diffing these against a
// MCBENCH_TELEMETRY=off pass bounds the recording overhead; without the
// span the instrumented run would measure the disabled fast path and
// the A/B would be vacuous.
func simCtx() context.Context {
	return telemetry.NewContext(context.Background(), telemetry.StartSpan())
}

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
)

func lab() *experiments.Lab {
	benchOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.QuickConfig())
	})
	return benchLab
}

// warmedLab returns the shared quick lab with the given request plan
// precomputed (campaign-level parallelism, outside the timed region).
// Each benchmark warms only the tables it declares, so a targeted
// -bench run pays for its own products and a full -bench=. run still
// builds every table exactly once across benchmarks.
func warmedLab(b *testing.B, plan func(l *experiments.Lab) []experiments.Request) *experiments.Lab {
	b.Helper()
	l := lab()
	if _, err := l.Warm(bctx, plan(l), 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return l
}

// printOnce emits the table on the first iteration only.
func printOnce(b *testing.B, i int, t *experiments.Table) {
	b.Helper()
	if i == 0 {
		t.Fprint(os.Stdout)
	}
}

// benchExperiment times one registered experiment end to end (reads of
// memoized tables plus the experiment's own Monte-Carlo work).
func benchExperiment(b *testing.B, name string, p experiments.Params) {
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	l := warmedLab(b, func(l *experiments.Lab) []experiments.Request { return e.Requests(l, p) })
	for i := 0; i < b.N; i++ {
		t, err := e.Run(bctx, l, p)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, t)
	}
}

func params2() experiments.Params {
	return experiments.Params{Cores: 2, CoreCounts: []int{2}}
}

func BenchmarkFig1(b *testing.B)     { benchExperiment(b, "fig1", params2()) }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4", params2()) }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3", params2()) }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, "fig4", params2()) }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "fig5", params2()) }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6", params2()) }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "fig7", params2()) }
func BenchmarkOverhead(b *testing.B) { benchExperiment(b, "overhead", params2()) }

func BenchmarkFig2(b *testing.B) {
	benchExperiment(b, "fig2", experiments.Params{Cores: 2, CoreCounts: []int{2, 4}})
}

func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", experiments.Params{Cores: 2, CoreCounts: []int{2, 4}})
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper (design-choice sensitivity).

func BenchmarkAblationStrataParams(b *testing.B)   { benchExperiment(b, "ablation-strata", params2()) }
func BenchmarkAblationClassification(b *testing.B) { benchExperiment(b, "ablation-classes", params2()) }
func BenchmarkAblationMetricChoice(b *testing.B)   { benchExperiment(b, "ablation-metrics", params2()) }
func BenchmarkSpeedupAccuracy(b *testing.B)        { benchExperiment(b, "speedup", params2()) }
func BenchmarkGuideline(b *testing.B)              { benchExperiment(b, "guideline", params2()) }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the simulators themselves (the substance behind
// Table III): per-simulated-µop cost of each simulator.

func benchTracesAndModels(b *testing.B) (multicore.TraceMap, map[string]*badco.Model) {
	b.Helper()
	traces := multicore.TraceMap(trace.GenerateSuite(20000))
	models := make(map[string]*badco.Model, len(traces))
	for name := range traces {
		m, err := multicore.BuildModel(bctx, traces, name, badco.DefaultBuildConfig())
		if err != nil {
			b.Fatal(err)
		}
		models[name] = m
	}
	return traces, models
}

func BenchmarkDetailedSimulator2Core(b *testing.B) {
	traces, _ := benchTracesAndModels(b)
	w := multicore.Workload{"mcf", "povray"}
	ctx := simCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multicore.Run(ctx, w, multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU}, traces, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBadcoSimulator2Core(b *testing.B) {
	_, models := benchTracesAndModels(b)
	w := multicore.Workload{"mcf", "povray"}
	ctx := simCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multicore.Run(ctx, w, multicore.Spec{Engine: multicore.BADCO, Policy: cache.LRU}, nil, models); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBadcoSimulator8Core(b *testing.B) {
	_, models := benchTracesAndModels(b)
	w := multicore.Workload{"mcf", "povray", "gcc", "libquantum", "hmmer", "soplex", "astar", "bzip2"}
	ctx := simCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multicore.Run(ctx, w, multicore.Spec{Engine: multicore.BADCO, Policy: cache.LRU}, nil, models); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Shared-warmup policy sweeps: k policies over one workload, the warmup
// prefix paid once through a checkpoint and its clones versus once per
// policy. The window shape follows sample-simulation methodology (a
// long warming prefix, a short measured sample), where the prefix
// dominates. Both
// variants run the policies sequentially, so the ratio isolates the
// shared warmup itself (no parallelism on either side) and mirrors the
// per-workload task of the lab's grouped detailed sweep.

const (
	sweepTraceOps  = 100000
	sweepWarmupOps = 90000
	sweepQuotaOps  = 5000
)

func benchSweepTraces(b *testing.B) (multicore.TraceMap, multicore.Workload) {
	b.Helper()
	traces := multicore.TraceMap{}
	w := multicore.Workload{"mcf", "povray"}
	for _, name := range w {
		p, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("no suite benchmark %q", name)
		}
		tr, err := trace.Generate(p, sweepTraceOps)
		if err != nil {
			b.Fatal(err)
		}
		traces[name] = tr
	}
	return traces, w
}

func BenchmarkPolicySweepSharedWarmup(b *testing.B) {
	traces, w := benchSweepTraces(b)
	pols := cache.PaperPolicies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := multicore.DetailedWarmup(bctx, w, traces, pols[0], sweepWarmupOps)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pols {
			if _, err := multicore.DetailedFrom(bctx, cp, p, sweepQuotaOps); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPolicySweepColdWarmup(b *testing.B) {
	traces, w := benchSweepTraces(b)
	pols := cache.PaperPolicies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pols {
			if _, err := multicore.Run(bctx, w, multicore.Spec{Engine: multicore.Detailed, Policy: p, Warmup: sweepWarmupOps, Quota: sweepQuotaOps}, traces, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkModelBuild(b *testing.B) {
	traces := trace.GenerateSuite(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := badco.Build(traces["gcc"], badco.DefaultBuildConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopulationSweep measures the full-population BADCO sweep that
// powers Figures 3-7 (2-core population, one policy).
func BenchmarkPopulationSweep(b *testing.B) {
	l := lab()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.BadcoIPC(bctx, 2, cache.LRU); err != nil {
			b.Fatal(err)
		}
	}
	tab, err := l.BadcoIPC(bctx, 2, cache.LRU)
	if err != nil {
		b.Fatal(err)
	}
	if len(tab) != 253 {
		b.Fatalf("population %d", len(tab))
	}
}

// ---------------------------------------------------------------------------
// Extension experiments: the Section II-B cluster-based methods, the
// footnote-4 co-phase matrix, the Table I branch predictor and the CLT
// premise behind equation (5).

func BenchmarkExtMethods(b *testing.B)        { benchExperiment(b, "methods", params2()) }
func BenchmarkCophaseValidation(b *testing.B) { benchExperiment(b, "cophase", params2()) }
func BenchmarkPredictorAblation(b *testing.B) { benchExperiment(b, "predictors", params2()) }
func BenchmarkNormality(b *testing.B)         { benchExperiment(b, "normality", params2()) }
func BenchmarkProfileSuite(b *testing.B)      { benchExperiment(b, "profiles", params2()) }
func BenchmarkExtPolicies(b *testing.B)       { benchExperiment(b, "policies", params2()) }

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks: per-operation cost of the new subsystems.

func BenchmarkTAGEPredict(b *testing.B) {
	p := bpred.NewDefaultTAGE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Predict(uint64(0x4000+(i%512)*16), i%7 != 0)
	}
}

func BenchmarkBimodalPredict(b *testing.B) {
	p := bpred.NewBimodal(14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Predict(uint64(0x4000+(i%512)*16), i%7 != 0)
	}
}

func BenchmarkProfileCompute(b *testing.B) {
	traces := trace.GenerateSuite(20000)
	tr := traces["mcf"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Compute(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansWorkloads(b *testing.B) {
	l := lab()
	pop := l.Population(2)
	feats, err := l.BenchFeatures(bctx)
	if err != nil {
		b.Fatal(err)
	}
	wf, err := sampling.WorkloadFeatures(pop, feats)
	if err != nil {
		b.Fatal(err)
	}
	norm := cluster.Normalize(wf)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(rng, norm, 10, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceEncode(b *testing.B) {
	traces := trace.GenerateSuite(20000)
	tr := traces["gcc"]
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		m, err := tr.WriteTo(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		n = m
	}
	b.SetBytes(n)
}

func BenchmarkTraceDecode(b *testing.B) {
	traces := trace.GenerateSuite(20000)
	var buf bytes.Buffer
	if _, err := traces["gcc"].WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCophaseRun(b *testing.B) {
	traces := trace.GenerateSuite(20000)
	for i := 0; i < b.N; i++ {
		sim, err := cophase.New([]string{"soplex", "gobmk"}, traces, cophase.Config{
			Phases: 10, SampleOps: 500, WarmOps: 2000, Policy: cache.LRU,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(20000); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Sampled vs exact detailed simulation on 10×-length traces — the regime
// systematic sampling exists for. The pair shares one trace set so
// their ratio is the mix sampled-vs-exact speedup (a 2-core
// heterogeneous mix, the estimator's hardest case for accuracy but a
// fair timing A/B). The error side of the frontier comes from the
// sampling-accuracy experiment.

func benchLongTraces(b *testing.B) (multicore.TraceMap, multicore.Workload) {
	b.Helper()
	traces := multicore.TraceMap{}
	w := multicore.Workload{"mcf", "povray"}
	for _, name := range w {
		p, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("no suite benchmark %q", name)
		}
		tr, err := trace.Generate(p, 200000)
		if err != nil {
			b.Fatal(err)
		}
		traces[name] = tr
	}
	return traces, w
}

func BenchmarkExactDetailed2Core10x(b *testing.B) {
	traces, w := benchLongTraces(b)
	ctx := simCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multicore.Run(ctx, w, multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU}, traces, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampledDetailed2Core10x(b *testing.B) {
	traces, w := benchLongTraces(b)
	spec := multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU,
		Sampling: multicore.SamplingSpec{Unit: 10000, Window: 2000, Warmup: 2000}}
	ctx := simCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := multicore.Run(ctx, w, spec, traces, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.Windows != 20 {
			b.Fatalf("windows = %d, want 20", r.Windows)
		}
	}
}
