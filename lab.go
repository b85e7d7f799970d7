package mcbench

import (
	"context"
	"fmt"

	"mcbench/internal/bench"
	"mcbench/internal/experiments"
	"mcbench/internal/multicore"
)

// Config scales an experiment campaign; it is the experiments package
// configuration re-exported. Use DefaultConfig for the paper's scale or
// QuickConfig for a fast low-resolution campaign, then adjust fields
// (TraceLen, Seed, CacheDir, ...) as needed.
type Config = experiments.Config

// DefaultConfig reproduces the paper's experimental scale.
func DefaultConfig() Config { return experiments.DefaultConfig() }

// QuickConfig returns a reduced campaign (smaller traces, subsampled
// populations, fewer Monte-Carlo trials) that finishes in minutes.
func QuickConfig() Config { return experiments.QuickConfig() }

// ProductEvent reports the lifecycle of one expensive Lab product —
// sweeps starting and finishing, models building, tables loading from
// the persistent cache. Install a Config.Observer to receive them; the
// serve subsystem streams them to clients as job progress.
type ProductEvent = experiments.ProductEvent

// Table is a printable experiment result: a title, column headers, rows
// and notes. Print it with Fprint or String.
type Table = experiments.Table

// Lab owns an experiment campaign's state: a benchmark source
// (Config.Source; the fixed suite by default), BADCO models, workload
// populations and the memoized population IPC tables everything else
// derives from. Traces resolve lazily through the source and one-shot
// consumers release them, so resident memory tracks the in-flight
// working set rather than the source size. A Lab is safe for concurrent
// use; every expensive product is built once behind a single-flight
// guard, and all methods honour context cancellation. With
// Config.CacheDir set, the population sweeps, reference IPCs and MPKI
// persist across processes, keyed by source identity among the other
// campaign parameters; the BADCO models are rebuilt by each process
// that needs them.
type Lab struct {
	lab *experiments.Lab
}

// NewLab creates a Lab with the given configuration.
func NewLab(cfg Config) *Lab { return &Lab{lab: experiments.NewLab(cfg)} }

// runParams maps a public cores argument onto experiment parameters:
// 0 means every experiment's paper default; a positive count, at most
// 64, pins both the single-count experiments and the core-count sweeps
// of fig2, fig3 and fig7.
func runParams(cores int) (experiments.Params, error) {
	if err := experiments.CheckCores(cores); err != nil {
		return experiments.Params{}, fmt.Errorf("mcbench: %v", err)
	}
	return experiments.ParamsFor(cores), nil
}

// lookup resolves an experiment name with a did-you-mean error.
func lookup(name string) (*experiments.Experiment, error) {
	e, ok := experiments.Lookup(name)
	if !ok {
		if s := experiments.Suggest(name); s != "" {
			return nil, fmt.Errorf("mcbench: unknown experiment %q (did you mean %q?)", name, s)
		}
		return nil, fmt.Errorf("mcbench: unknown experiment %q (see Experiments())", name)
	}
	return e, nil
}

// Run executes one registered experiment (see Experiments for the
// catalogue) and returns its table. A positive cores pins the core
// count of every experiment, the core-count sweeps of fig2, fig3 and fig7
// included; 0 keeps each experiment's paper default. The experiment's
// prerequisites are warmed first (see Warm), so repeated Runs share work
// through the lab's memoization.
func (l *Lab) Run(ctx context.Context, name string, cores int) (*Table, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if _, err := l.Warm(ctx, []string{name}, cores); err != nil {
		return nil, err
	}
	return e.Run(ctx, l.lab, experiments.ParamsFor(cores))
}

// Chart renders the experiment's text chart, or ok=false when the
// experiment has no chart form.
func (l *Lab) Chart(ctx context.Context, name string, cores int) (chart string, ok bool, err error) {
	e, err := lookup(name)
	if err != nil {
		return "", false, err
	}
	p, err := runParams(cores)
	if err != nil {
		return "", false, err
	}
	if e.Chart == nil {
		return "", false, nil
	}
	chart, err = e.Chart(ctx, l.lab, p)
	return chart, true, err
}

// Warm precomputes the expensive products (population sweeps, reference
// IPCs, MPKI measurements) the named experiments will read, with bounded
// parallelism; "all" names the paper's experiments. It returns the
// number of distinct products in the plan. Unknown experiment names are
// an error (with a did-you-mean hint), and cores is read as Run reads
// it, so Warm plans what the Runs will read. Cancelling the context
// stops the campaign promptly; completed products stay memoized (and
// persisted when CacheDir is set).
func (l *Lab) Warm(ctx context.Context, names []string, cores int) (int, error) {
	plan, err := l.plan(names, cores)
	if err != nil {
		return 0, err
	}
	return l.lab.Warm(ctx, plan, 0)
}

// plan checks the names and cores of a Warm and returns the products it
// precomputes.
func (l *Lab) plan(names []string, cores int) ([]experiments.Request, error) {
	for _, name := range names {
		if name == "all" {
			continue
		}
		if _, err := lookup(name); err != nil {
			return nil, err
		}
	}
	p, err := runParams(cores)
	if err != nil {
		return nil, err
	}
	return l.lab.CampaignPlan(names, p), nil
}

// Simulate runs one workload on the lab's shared traces and models — the
// memoized equivalents of the package-level Simulate — so repeated calls
// and experiment runs share the expensive state. The trace length is the
// lab's Config.TraceLen; WithTraceLen is rejected here. The first BADCO
// call builds the models of every benchmark in Lab.Benchmarks(), emitting
// one "models" ProductEvent through Config.Observer; later calls reuse
// them and emit none.
func (l *Lab) Simulate(ctx context.Context, workload []string, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	if o.fixedLen {
		return nil, fmt.Errorf("mcbench: WithTraceLen applies to the package-level Simulate; a Lab's trace length is Config.TraceLen")
	}
	if o.suite != nil {
		return nil, fmt.Errorf("mcbench: WithSuite applies to the package-level Simulate; a Lab's source is Config.Source")
	}
	if o.spec.Engine == multicore.BADCO {
		if _, err := l.lab.Models(ctx); err != nil {
			return nil, fmt.Errorf("mcbench: %w", err)
		}
	}
	out, err := o.run(ctx, l.lab, [][]string{workload})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Diffs returns the per-workload throughput differences d(w) between
// policies X and Y under the metric, over the BADCO population table for
// the given core count — the values the paper's whole confidence
// machinery (cv, W = 8cv², stratification) operates on.
func (l *Lab) Diffs(ctx context.Context, cores int, m Metric, x, y Policy) ([]float64, error) {
	return l.lab.Diffs(ctx, cores, m, x, y)
}

// Population returns the lab's workload population for the given core
// count (the full enumeration where tractable, a uniform sample where
// not, per the configuration).
func (l *Lab) Population(cores int) *Population { return l.lab.Population(cores) }

// Benchmarks returns the benchmark names of the lab's source, in source
// order — the index order of Population workloads, Classes and
// BenchFeatures. For the default configuration this is Benchmarks().
func (l *Lab) Benchmarks() []string { return l.lab.Names() }

// Suite returns the benchmark source the lab studies (Config.Source, or
// the shared fixed suite when the configuration left it nil).
func (l *Lab) Suite() Source { return l.lab.Source() }

// Classes returns the measured memory-intensity class of every benchmark
// (indexed like Benchmarks()), the classification behind benchmark
// stratification.
func (l *Lab) Classes(ctx context.Context) ([]int, error) { return l.lab.Classes(ctx) }

// BenchFeatures returns the microarchitecture-independent feature matrix
// of the suite (one row per benchmark), the input to the cluster-based
// selection methods.
func (l *Lab) BenchFeatures(ctx context.Context) ([][]float64, error) {
	return l.lab.BenchFeatures(ctx)
}

// ExperimentInfo describes one registered experiment: its name, its
// one-line synopsis and its group, "paper" for reproductions of the
// paper's figures and tables and "extension" for experiments beyond it.
// GET /experiments serves the same entries (Client.ServerExperiments).
type ExperimentInfo = experiments.Info

// Experiments enumerates the registered experiments: the paper's figures
// and tables first (in run order), then the extensions.
func Experiments() []ExperimentInfo { return experiments.Catalogue() }

// BenchInfo describes one benchmark of a source: its name and, for a
// generated source, its instruction mix and access-pattern kinds.
// GET /benches serves the same entries (Client.Benches).
type BenchInfo = bench.Info

// Benches describes the benchmarks of the lab's source, in source order.
func (l *Lab) Benches() []BenchInfo { return bench.Describe(l.lab.Source()) }
