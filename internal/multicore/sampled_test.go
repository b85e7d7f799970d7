package multicore

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/trace"
)

var updateSampledGolden = flag.Bool("update-sampled", false, "rewrite testdata/sampled_golden.txt")

func TestSamplingSpecValidate(t *testing.T) {
	cases := []struct {
		spec SamplingSpec
		ok   bool
	}{
		{SamplingSpec{}, true},
		{SamplingSpec{Unit: 1000, Window: 100}, true},
		{SamplingSpec{Unit: 1000, Window: 100, Warmup: 900}, true},
		{SamplingSpec{Unit: 1000, Window: 100, Warmup: 901}, false},
		{SamplingSpec{Unit: 1000}, false},
		{SamplingSpec{Window: 100}, false},
		{SamplingSpec{Warmup: 100}, false},
		{SamplingSpec{Unit: 1000, Window: 100, Warmup: 100, Warm: 800}, true},
		{SamplingSpec{Unit: 1000, Window: 100, Warmup: 100, Warm: 801}, false},
		{SamplingSpec{Warm: 100}, false},
		// Fields whose sums wrap around in uint64 must not pass.
		{SamplingSpec{Unit: 10000, Window: 2000, Warmup: math.MaxUint64}, false},
		{SamplingSpec{Unit: 10000, Window: math.MaxUint64, Warmup: 2000}, false},
		{SamplingSpec{Unit: 10000, Window: math.MaxUint64 - 999, Warmup: 2000}, false},
		{SamplingSpec{Unit: 10000, Window: 2000, Warmup: 1000, Warm: math.MaxUint64}, false},
		{SamplingSpec{Unit: math.MaxUint64, Window: 1, Warmup: math.MaxUint64 - 1}, true},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
	if got := (SamplingSpec{}).String(); got != "exact" {
		t.Errorf("zero spec String = %q", got)
	}
	if got := (SamplingSpec{Unit: 1000, Window: 100, Warmup: 50}).String(); got != "u1000d100w50" {
		t.Errorf("spec String = %q", got)
	}
	if got := (SamplingSpec{Unit: 1000, Window: 100, Warmup: 50, Warm: 400}).String(); got != "u1000d100w50f400" {
		t.Errorf("bounded-warm spec String = %q", got)
	}
}

// formatSampled renders every numeric field of a sampled result with
// full float bit patterns, so the golden pins the run byte-identically.
func formatSampled(r Result, spec SamplingSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s policy=%s spec=%s windows=%d instructions=%d\n",
		r.Workload, r.Policy, spec, r.Windows, r.Instructions)
	for i := range r.IPC {
		fmt.Fprintf(&b, "core %d cycles=%d ipc=%.9f(%016x) ci=%.9f(%016x) cv=%.9f(%016x)\n",
			i, r.Cycles[i],
			r.IPC[i], math.Float64bits(r.IPC[i]),
			r.CIHalf[i], math.Float64bits(r.CIHalf[i]),
			r.CV[i], math.Float64bits(r.CV[i]))
		for k, s := range r.Samples[i] {
			fmt.Fprintf(&b, "  window %d ipc=%.9f(%016x)\n", k, s, math.Float64bits(s))
		}
	}
	return b.String()
}

// TestSampledGolden pins one sampled run byte-identical across
// refactors: the exact per-window IPCs, interval and cv of a fixed
// workload/spec, bit patterns included.
func TestSampledGolden(t *testing.T) {
	trs := traces(t)
	spec := SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500}
	r, err := Run(context.Background(), Workload{"mcf", "povray"}, Spec{Engine: Detailed, Policy: cache.LRU, Sampling: spec}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := formatSampled(r, spec)
	path := filepath.Join("testdata", "sampled_golden.txt")
	if *updateSampledGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-sampled): %v", err)
	}
	if got != string(want) {
		t.Errorf("sampled run diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSampledDeterministic guards against hidden nondeterminism: two
// independent sampled runs of the same inputs are bit-identical.
func TestSampledDeterministic(t *testing.T) {
	trs := traces(t)
	spec := SamplingSpec{Unit: 5000, Window: 1000, Warmup: 1000}
	run := Spec{Engine: Detailed, Policy: cache.DRRIP, Sampling: spec}
	a, err := Run(context.Background(), Workload{"soplex", "gcc"}, run, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), Workload{"soplex", "gcc"}, run, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if formatSampled(a, spec) != formatSampled(b, spec) {
		t.Error("two identical sampled runs diverged")
	}
}

// coverageRate is the configured rate of the CI-coverage property test:
// across the seeded ensemble below, at least this fraction of
// (trace-seed, workload, core) cases must have the exact steady-state
// IPC inside the reported interval. The interval bounds the sampling
// error of the window-mean estimator; the residual functional-warming
// bias eats some of the nominal 95%, so the configured floor sits below
// it.
const coverageRate = 0.70

// maxMeanSampledError bounds the mean relative IPC error of the sampled
// estimator across the same ensemble. The traces here are short enough
// to keep the test fast (~20 windows per run), so the bound is governed
// by sampling noise on the high-variance workloads (hmmer's windows are
// strongly bimodal, cv ≈ 0.8) rather than estimator bias; the wide
// intervals those runs report are exactly what the coverage assertion
// checks. Bench-scale accuracy (many more windows on 10×-longer traces)
// is measured by the sampling-accuracy experiment instead.
const maxMeanSampledError = 0.06

// seededTraces generates the named benchmarks at length n with every
// generator seed shifted by off — independent trace draws from the same
// workload distributions, so the coverage property is tested across
// many traces, not one.
func seededTraces(t *testing.T, names []string, n int, off int64) TraceMap {
	t.Helper()
	out := make(TraceMap, len(names))
	for _, name := range names {
		p, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		p.Seed += off
		tr, err := trace.Generate(p, n)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tr
	}
	return out
}

// TestSampledCICoversExact is the seeded property test: across
// independent trace draws and workloads, the reported interval must
// contain the exact steady-state IPC at no less than the configured
// rate, and the mean relative error must stay within the accuracy
// target. The baseline is a warmed exact run (Spec.Warmup)
// rather than a cold one: systematic sampling estimates steady-state
// IPC by construction — its windows never cover the cold-start
// transient, which on traces this short is a measurable fraction of a
// cold run's cycles, so a cold baseline would compare two different
// quantities. Singles and a balanced pair only: heterogeneous mixes
// progress in per-µop lockstep under sampling, which distorts the
// interference alignment (see the package comment's accuracy notes).
func TestSampledCICoversExact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation ensemble")
	}
	const n = 200000
	spec := SamplingSpec{Unit: 10000, Window: 2000, Warmup: 2000}
	names := []string{"mcf", "gcc", "soplex", "hmmer"}
	workloads := []Workload{
		{"mcf"}, {"gcc"}, {"soplex"}, {"hmmer"}, {"gcc", "soplex"},
	}
	var covered, total int
	var errSum float64
	ctx := context.Background()
	for _, off := range []int64{0, 7000, 14000} {
		trs := seededTraces(t, names, n, off)
		for _, w := range workloads {
			exact, err := Run(ctx, w, Spec{Engine: Detailed, Policy: cache.LRU, Warmup: spec.Unit, Quota: n - spec.Unit}, trs, nil)
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := Run(ctx, w, Spec{Engine: Detailed, Policy: cache.LRU, Sampling: spec}, trs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range exact.IPC {
				diff := math.Abs(sampled.IPC[i] - exact.IPC[i])
				errSum += diff / exact.IPC[i]
				total++
				if diff <= sampled.CIHalf[i] {
					covered++
				}
				t.Logf("seed+%d %s core %d: exact %.4f sampled %.4f ± %.4f (cv %.3f)",
					off, w, i, exact.IPC[i], sampled.IPC[i], sampled.CIHalf[i], sampled.CV[i])
			}
		}
	}
	if rate := float64(covered) / float64(total); rate < coverageRate {
		t.Errorf("CI covered exact IPC in %d/%d cases (%.2f), want >= %.2f", covered, total, rate, coverageRate)
	}
	if mean := errSum / float64(total); mean > maxMeanSampledError {
		t.Errorf("mean sampled IPC error %.4f exceeds %.4f", mean, maxMeanSampledError)
	}
}

// TestSampledErrors exercises the argument contract: the sampling rules
// of Spec.Validate hold at Run, and a unit beyond the quota is refused.
func TestSampledErrors(t *testing.T) {
	trs, mods := traces(t), models(t)
	ctx := context.Background()
	spec := SamplingSpec{Unit: 1000, Window: 100}
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"BADCO sampling", Spec{Engine: BADCO, Policy: cache.LRU, Sampling: spec}},
		{"sampling with warmup", Spec{Engine: Detailed, Policy: cache.LRU, Sampling: spec, Warmup: 100}},
		{"overfull unit", Spec{Engine: Detailed, Policy: cache.LRU, Sampling: SamplingSpec{Unit: 100, Window: 80, Warmup: 30}}},
		{"window without unit", Spec{Engine: Detailed, Policy: cache.LRU, Sampling: SamplingSpec{Window: 10}}},
		{"unit beyond quota", Spec{Engine: Detailed, Policy: cache.LRU, Sampling: SamplingSpec{Unit: never, Window: 10}}},
	} {
		if _, err := Run(ctx, Workload{"mcf"}, c.spec, trs, mods); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestRunWarmupBeyondQuota: warmup ≤ quota is a front-end rule
// (Spec.Validate), not a kernel one. Run executes a long warming prefix
// before a short measured sample on both engines.
func TestRunWarmupBeyondQuota(t *testing.T) {
	trs, mods := traces(t), models(t)
	for _, e := range []Engine{Detailed, BADCO} {
		spec := Spec{Engine: e, Policy: cache.LRU, Quota: uint64(mods["mcf"].TraceLen), Warmup: 3 * uint64(mods["mcf"].TraceLen)}
		if err := spec.Validate(0); err == nil {
			t.Errorf("%v: Validate accepted warmup %d beyond quota %d", e, spec.Warmup, spec.Quota)
		}
		r, err := Run(context.Background(), Workload{"mcf", "povray"}, spec, trs, mods)
		if err != nil {
			t.Fatalf("%v: Run: %v", e, err)
		}
		if r.Instructions != spec.Quota || r.IPC[0] <= 0 || r.IPC[1] <= 0 {
			t.Errorf("%v: result %+v", e, r)
		}
	}
}
