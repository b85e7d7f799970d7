package mcbench

// WithSampling runs the detailed simulation under SMARTS-style
// systematic sampling instead of exactly: per unit µops committed by
// each core, one window of window µops is measured by the cycle-level
// model after warmup detailed µops of cache/predictor warmup, and the
// rest of the unit is fast-forwarded functionally (caches, branch
// predictors and prefetcher state stay warm; the out-of-order pipeline
// is skipped). The Result's IPC becomes an estimate of the steady-state
// IPC with CIHalf, CV and Windows populated:
//
//	r, err := mcbench.Simulate(ctx, []string{"mcf"},
//	    mcbench.WithSampling(10000, 2000, 2000),
//	    mcbench.WithTraceLen(10*mcbench.DefaultTraceLen))
//	// r.IPC[0] ± r.CIHalf[0] over r.Windows windows
//
// Sampling requires the Detailed engine and is mutually exclusive with
// WithWarmup (the spec's warmup argument plays that role per window).
// The estimate targets steady-state IPC: the windows never measure the
// cold-start transient a full run from reset includes, which is the
// point — and the reason sampled and exact IPCs on short traces differ
// by more than the confidence interval suggests. Accuracy degrades on
// strongly heterogeneous workload mixes, whose threads progress in
// lockstep during fast-forward; see internal/multicore's package notes.
func WithSampling(unit, window, warmup uint64) Option {
	return func(o *options) {
		o.spec.Sampling.Unit = unit
		o.spec.Sampling.Window = window
		o.spec.Sampling.Warmup = warmup
	}
}

// WithSamplingWarm bounds the functional warming of each skipped gap to
// the final n µops before the next window (the rest of the gap is
// skipped outright in O(1)). This is the experimental speed dial of
// sampled simulation: it caps the fast-forward cost per unit, buying
// 2-4× more speedup on coarse sampling units, at the price of warmup
// bias — under-warming truncates the cache reuse-distance tail (IPC
// biased low), and prefetch-heavy streaming workloads can swing the
// other way. Zero (the default) warms the whole gap. Only meaningful
// together with WithSampling.
func WithSamplingWarm(n uint64) Option {
	return func(o *options) { o.spec.Sampling.Warm = n }
}
