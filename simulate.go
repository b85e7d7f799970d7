package mcbench

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/experiments"
	"mcbench/internal/multicore"
	"mcbench/internal/trace"
)

// Engine selects the simulator behind Simulate and Sweep.
type Engine int

const (
	// Detailed is the cycle-level out-of-order core model (the Zesto
	// role in the paper): accurate, slow.
	Detailed Engine = iota
	// BADCO is the behavioural approximate core model: each benchmark
	// is reduced to a model calibrated by two detailed runs, then
	// simulated an order of magnitude faster.
	BADCO
)

// String names the engine.
func (e Engine) String() string { return multicore.Engine(e).String() }

// Policy names an LLC replacement policy. The constants below cover the
// paper's case study (LRU, RND, FIFO, DIP, DRRIP) and the extension
// policies (SRRIP, PLRU, SHiP).
type Policy = cache.PolicyName

// The available replacement policies.
const (
	LRU   = cache.LRU
	RND   = cache.Random
	FIFO  = cache.FIFO
	DIP   = cache.DIP
	DRRIP = cache.DRRIP
	SRRIP = cache.SRRIP
	PLRU  = cache.PLRU
	SHiP  = cache.SHIP
)

// Policies returns the paper's five case-study policies in paper order.
func Policies() []Policy { return cache.PaperPolicies() }

// Result is the outcome of simulating one multiprogrammed workload.
type Result struct {
	// Workload is the benchmark co-schedule, one name per core.
	Workload []string
	Policy   Policy
	Engine   Engine
	// IPC per core, measured on the first Instructions µops of each
	// thread (the paper's methodology).
	IPC []float64
	// Cycles per core at which the quota was reached.
	Cycles []uint64
	// Instructions is the per-thread quota.
	Instructions uint64
	// CIHalf, CV and Windows are populated only by sampled runs
	// (WithSampling): the per-core 95% confidence half-width and
	// coefficient of variation of the per-window IPCs, and the number
	// of detailed windows measured. Exact runs leave CIHalf and CV nil
	// and Windows 0.
	CIHalf  []float64
	CV      []float64
	Windows int
}

// options collects the functional options of Simulate and Sweep: the
// run spec and core count every ad-hoc front end shares, plus the local
// trace length and source. The public Engine values mirror
// multicore.Engine's.
type options struct {
	spec     multicore.Spec
	cores    int
	traceLen int
	suite    Source
	fixedLen bool // WithTraceLen given (Lab.Simulate rejects it)
}

// Option configures Simulate and Sweep.
type Option func(*options)

// WithPolicy selects the LLC replacement policy (default LRU).
func WithPolicy(p Policy) Option { return func(o *options) { o.spec.Policy = p } }

// WithSimulator selects the simulation engine (default Detailed).
func WithSimulator(e Engine) Option { return func(o *options) { o.spec.Engine = multicore.Engine(e) } }

// WithQuota sets the per-thread instruction quota (default: one trace
// length per thread).
func WithQuota(q uint64) Option { return func(o *options) { o.spec.Quota = q } }

// WithWarmup runs each thread for n committed µops before the
// measurement window opens (default 0: measure from reset). Caches,
// predictors and prefetchers warm during the prefix; IPC and cycles
// cover only the quota µops beyond it. Simulate and Sweep run the
// warmup and the measurement back to back, once per workload and
// policy.
func WithWarmup(n uint64) Option { return func(o *options) { o.spec.Warmup = n } }

// WithTraceLen sets the per-benchmark trace length in µops (default
// mcbench.DefaultTraceLen). Shorter traces simulate faster at lower
// fidelity.
func WithTraceLen(n int) Option {
	return func(o *options) {
		o.traceLen = n
		o.fixedLen = true
	}
}

// WithCores pins the machine's core count. A single-benchmark workload
// is replicated onto all n cores (a homogeneous workload, e.g. mcf x 4);
// a multi-benchmark workload must already have exactly n threads.
func WithCores(n int) Option { return func(o *options) { o.cores = n } }

// WithSuite selects the benchmark source workload names resolve
// through (default: the shared fixed suite). Traces memoize inside the
// source, so repeated calls against one source never regenerate a
// trace it already holds:
//
//	src, _ := mcbench.Suite("scaled:64:7")
//	r, err := mcbench.Simulate(ctx, []string{"high-005", "low-000"},
//	    mcbench.WithSuite(src))
//
// A nil src means the default.
func WithSuite(src Source) Option { return func(o *options) { o.suite = src } }

// DefaultTraceLen is the default per-benchmark trace length.
const DefaultTraceLen = trace.DefaultTraceLen

func buildOptions(opts []Option) options {
	o := options{spec: multicore.Spec{Policy: LRU}, traceLen: DefaultTraceLen}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Simulate runs one multiprogrammed workload — one benchmark name per
// core — under the configured policy and engine, and returns the
// per-thread IPCs. The context cancels the simulation promptly:
//
//	r, err := mcbench.Simulate(ctx, []string{"mcf", "povray"},
//	    mcbench.WithPolicy(mcbench.DRRIP),
//	    mcbench.WithSimulator(mcbench.BADCO),
//	    mcbench.WithTraceLen(20000))
func Simulate(ctx context.Context, workload []string, opts ...Option) (*Result, error) {
	out, err := Sweep(ctx, [][]string{workload}, opts...)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Sweep simulates many workloads under one configuration, in parallel
// across the process-wide simulation budget. Traces resolve lazily
// through the (shared) source and BADCO models are built once per
// distinct benchmark. The returned slice is indexed like workloads.
func Sweep(ctx context.Context, workloads [][]string, opts ...Option) ([]*Result, error) {
	o := buildOptions(opts)
	src := o.suite
	if src == nil {
		src = defaultSource()
	}
	return o.run(ctx, experiments.NewLab(experiments.Config{Source: src, TraceLen: o.traceLen}), workloads)
}

// run runs the workloads through the lab's ad-hoc executor
// (experiments.Lab.Simulate) and maps its results onto the public
// Result. Every error, a run the checks reject or a cancelled or failed
// simulation, is reported under the package prefix.
func (o options) run(ctx context.Context, lab *experiments.Lab, workloads [][]string) ([]*Result, error) {
	results, _, _, err := lab.Simulate(ctx, o.spec, workloads, o.cores)
	if err != nil {
		return nil, fmt.Errorf("mcbench: %w", err)
	}
	out := make([]*Result, len(results))
	for i, r := range results {
		out[i] = &Result{
			Workload:     append([]string(nil), r.Workload...),
			Policy:       r.Policy,
			Engine:       Engine(o.spec.Engine),
			IPC:          r.IPC,
			Cycles:       r.Cycles,
			Instructions: r.Instructions,
			CIHalf:       r.CIHalf,
			CV:           r.CV,
			Windows:      r.Windows,
		}
	}
	return out, nil
}
