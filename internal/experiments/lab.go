// Package experiments reproduces every table and figure of the paper's
// evaluation, plus the extension experiments beyond it. A Lab owns the
// experimental state — benchmark traces, BADCO models, workload
// populations and memoized IPC tables per (core count, policy,
// simulator) — and each experiment reads from it and emits a printable
// Table.
//
// Experiments are registered implementations of the Experiment interface
// (see registry.go): each declares its name, the expensive Lab products
// it reads as a []Request, and a Run method producing its Table.
// cmd/mcbench and the public mcbench package dispatch through the
// registry instead of hard-coded switches.
//
// All lazy state is memoized with per-key single-flight semantics, so a
// Lab is safe for concurrent use: two goroutines asking for the same
// table block on one computation, while different tables build in
// parallel. Lab.Warm precomputes a whole campaign's plan with bounded
// parallelism. Everything is context-aware: cancelling the context
// aborts in-flight population sweeps promptly, and failed (cancelled)
// computations are not memoized, so a later call retries cleanly.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcbench/internal/badco"
	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/multicore"
	"mcbench/internal/profile"
	"mcbench/internal/results"
	"mcbench/internal/telemetry"
	"mcbench/internal/trace"
	"mcbench/internal/workload"
)

// Config scales the experimental campaign. DefaultConfig matches the
// paper's counts; QuickConfig shrinks everything for tests and smoke
// runs.
type Config struct {
	TraceLen      int   // µops per benchmark trace
	Pop8Size      int   // sampled population size for 8 cores (paper: 10000)
	Pop4Limit     int   // 0 = full 12650-workload population, else subsample
	DetailedCount int   // workloads simulated with the detailed model (paper: 250)
	Fig3Trials    int   // samples per point in Fig. 3 (paper: 1000)
	Fig6Trials    int   // samples per point in Fig. 6 (paper: 10000)
	Fig7Trials    int   // samples per point in Fig. 7 (paper: 100)
	Seed          int64 // master seed; all randomness derives from it

	// Source selects the benchmark population the lab studies. nil means
	// the paper's fixed 22-benchmark suite. All memoized products and
	// persisted tables are keyed by the source's identity, so labs over
	// different sources never share (or clobber) each other's state.
	Source bench.Source

	// PopLimit, when positive, caps every workload population at a
	// uniform sample of that size regardless of core count. It is the
	// knob for big scaled sources, whose full enumerations are
	// astronomically large; the core-count-specific Pop8Size/Pop4Limit
	// take precedence where they apply.
	PopLimit int

	// PopScaleBs are the benchmark-population sizes B the
	// population-scaling experiment sweeps (each via a scaled:B source
	// derived from Seed); PopScaleSample is the workload sample size per
	// B.
	PopScaleBs     []int
	PopScaleSample int

	// CacheDir, when non-empty, persists IPC tables (the expensive
	// population sweeps) across runs via the results package.
	CacheDir string

	// RemoteFetch, when non-nil (and CacheDir is set), is installed as the
	// store's read-through fetcher: a local cache miss consults it before
	// falling back to compute. The fleet wires it to peer /cache/{key}
	// fetches so any node can serve any table; fetched bytes are
	// checksum-verified before use and any failure is a plain miss.
	RemoteFetch func(key string) (data []byte, ok bool, err error)

	// Warmup, when positive, runs every detailed-simulator workload for
	// that many committed µops per core before its measurement window
	// begins. The detailed population sweeps then share the warmed
	// prefix across the case-study policies: each workload is warmed
	// once, and every policy's measurement runs on a clone of the warmed
	// machine (multicore.DetailedWarmup / DetailedFrom), so a k-policy
	// sweep pays the warmup once instead of k times; BADCO
	// sweeps run each workload's warmup per policy. Warmed tables
	// persist under distinct cache keys. The default 0 measures
	// from reset and keeps every result — and every persisted cache
	// file — bit-identical to previous versions.
	Warmup int

	// Sampling, when enabled, runs every detailed-simulator sweep under
	// SMARTS-style systematic sampling (multicore.Spec.Sampling)
	// instead of exactly: per spec.Unit µops one window of spec.Window
	// µops is measured in detail after spec.Warmup detailed warmup µops,
	// with the gap fast-forwarded under functional warming. The
	// resulting tables are estimates — they persist under distinct cache
	// keys carrying the spec, with per-workload confidence half-widths
	// and cv columns alongside the IPC. Mutually exclusive with Warmup
	// (the sampled driver owns its own warmup structure). The zero spec
	// keeps every sweep, key and persisted file exactly as before.
	Sampling multicore.SamplingSpec

	// Observer, when non-nil, receives a ProductEvent whenever an
	// expensive memoized product is computed (or loaded from the
	// persistent cache): sweeps starting and finishing, models and
	// reference measurements building. It is the progress feed the serve
	// subsystem streams to clients. Memo hits emit nothing — the product
	// was already observed when it was built. The callback runs on the
	// computing goroutine and must not block.
	Observer func(ProductEvent)

	// Metrics, when non-nil, is the telemetry registry the lab records
	// into: product latencies, per-phase timing breakdowns (trace load,
	// model build, warmup, fast-forward, measured window, store save),
	// persistent-cache hit/miss counters and the store's operation
	// counters. nil records into telemetry.Default(), the process-wide
	// registry that mcbench.Metrics() snapshots; the serve subsystem
	// passes a per-server registry so co-resident servers don't mix
	// series.
	Metrics *telemetry.Registry
}

// ProductEvent reports the lifecycle of one expensive Lab product. Sim
// matches the campaign Simulator names ("badco", "detailed", "ref",
// "mpki", "models"); Cores and Policy are set where the product is keyed
// by them. Phase is "start" when a computation begins and "done" when it
// finishes (Err non-nil on failure); a product served from the
// persistent cache emits a single "done" with Cached set.
type ProductEvent struct {
	Sim     string
	Cores   int
	Policy  string
	Phase   string // "start" | "done"
	Cached  bool
	Rows    int // result rows (table rows, model count, vector length)
	Err     error
	Elapsed time.Duration // set on "done"
}

// DefaultConfig reproduces the paper's experimental scale.
func DefaultConfig() Config {
	return Config{
		TraceLen:       trace.DefaultTraceLen,
		Pop8Size:       10000,
		DetailedCount:  250,
		Fig3Trials:     1000,
		Fig6Trials:     10000,
		Fig7Trials:     100,
		PopScaleBs:     []int{16, 32, 64, 128},
		PopScaleSample: 400,
		Seed:           20130421, // ISPASS 2013 in Austin
	}
}

// QuickConfig returns a reduced campaign for tests: smaller traces,
// subsampled populations and fewer Monte-Carlo trials. The shapes of the
// results are preserved; only their resolution drops.
func QuickConfig() Config {
	return Config{
		TraceLen:       20000,
		Pop8Size:       400,
		Pop4Limit:      800,
		DetailedCount:  40,
		Fig3Trials:     300,
		Fig6Trials:     400,
		Fig7Trials:     60,
		PopScaleBs:     []int{12, 18},
		PopScaleSample: 120,
		Seed:           20130421,
	}
}

// Policies returns the case-study policy list (paper order).
func Policies() []cache.PolicyName { return cache.PaperPolicies() }

// PolicyPairs returns the 10 ordered policy pairs of Figures 4 and 5, as
// (X, Y) with the figure's "X>Y" labelling meaning "is Y better than X".
func PolicyPairs() [][2]cache.PolicyName {
	pols := Policies()
	var pairs [][2]cache.PolicyName
	for i := 0; i < len(pols); i++ {
		for j := i + 1; j < len(pols); j++ {
			pairs = append(pairs, [2]cache.PolicyName{pols[i], pols[j]})
		}
	}
	return pairs
}

// ipcKey indexes memoized IPC tables.
type ipcKey struct {
	cores  int
	policy cache.PolicyName
}

// flight is one in-flight (or completed) computation of a value.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// flightGroup memoizes one value per key with single-flight semantics:
// concurrent callers of the same key block on a single computation, while
// different keys compute independently and may run in parallel. The
// mutex only guards the entry map, never a computation.
//
// A computation that fails (most commonly: its context was cancelled) is
// not memoized — the entry is dropped, the failure is reported to every
// caller blocked on it, and the next caller recomputes. A waiter whose
// own context is cancelled stops waiting with that context's error while
// the computation keeps running for the remaining callers.
type flightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

// do returns the memoized value for key, computing it at most once.
func (g *flightGroup[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[K]*flight[V])
		}
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-f.done:
				if isCtxErr(f.err) && ctx.Err() == nil {
					// The computing caller was cancelled, but this
					// waiter is live: retry with our own context
					// instead of inheriting someone else's
					// cancellation. (The failed entry was already
					// dropped, so the loop starts a fresh flight.)
					continue
				}
				return f.val, f.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		f := &flight[V]{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()
		f.val, f.err = compute()
		if f.err != nil {
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
		}
		close(f.done)
		return f.val, f.err
	}
}

// cached returns key's value if a computation of it has already
// succeeded, without waiting on or starting one.
func (g *flightGroup[K, V]) cached(key K) (V, bool) {
	g.mu.Lock()
	f, ok := g.m[key]
	g.mu.Unlock()
	if ok {
		select {
		case <-f.done:
			if f.err == nil {
				return f.val, true
			}
		default:
		}
	}
	var zero V
	return zero, false
}

// isCtxErr reports whether err is a context cancellation/deadline — the
// only failures worth retrying on behalf of a live waiter (a
// deterministic compute error would just fail again).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lazy is a single-value flightGroup: a memoized computation with the
// same retry-on-failure and cancellation semantics.
type lazy[V any] struct {
	fg flightGroup[struct{}, V]
}

func (z *lazy[V]) get(ctx context.Context, compute func() (V, error)) (V, error) {
	return z.fg.do(ctx, struct{}{}, compute)
}

// Lab lazily builds and caches all experimental state. The pure products
// (benchmark names, populations, detailed-sample indices, the persistent
// store handle) are cheap and infallible; everything that simulates —
// traces, models, IPC tables, reference IPCs, the MPKI measurement,
// profiles — is context-aware and memoized with single-flight semantics.
type Lab struct {
	cfg Config
	src bench.Source // the benchmark population under study

	namesOnce sync.Once
	names     []string // benchmark order (source order)

	models   lazy[map[string]*badco.Model]     // every benchmark's model, drawn from model
	model    flightGroup[string, *badco.Model] // per benchmark, shared with ad-hoc jobs
	mpki     lazy[[]float64]                   // per benchmark: alone LLC misses per kilo-op
	profiles lazy[[]*profile.Profile]          // per benchmark: microarch-independent profile

	storeOnce sync.Once
	store     *results.Store // nil: no CacheDir, or the directory is unusable

	pops      flightGroup[int, *workload.Population]
	detSample flightGroup[int, []int]          // population indices simulated in detail
	refIPC    flightGroup[int, []float64]      // per core count: per-benchmark alone IPC
	badcoIPC  flightGroup[ipcKey, [][]float64] // population IPC tables (BADCO)
	detIPC    flightGroup[ipcKey, [][]float64] // detailed IPC tables over DetSample

	// detShared memoizes the shared-warmup grouped sweep per core count:
	// one warmed prefix per workload, every case-study policy measured
	// from it. Only consulted when cfg.Warmup > 0.
	detShared flightGroup[int, map[cache.PolicyName][][]float64]

	// Sweep counters record how many full population sweeps actually ran
	// (persistent-cache hits excluded); the single-flight regression
	// tests assert exactly one sweep per key.
	badcoSweeps atomic.Int64
	detSweeps   atomic.Int64
}

// SweepCounts reports how many full population sweeps this lab actually
// executed (persistent-cache hits excluded), per simulator. The serve
// subsystem's dedup tests assert on it end to end: N coalesced
// submissions must leave these at one.
func (l *Lab) SweepCounts() (badco, detailed int64) {
	return l.badcoSweeps.Load(), l.detSweeps.Load()
}

// observe forwards a product event to the configured Observer, if any.
func (l *Lab) observe(ev ProductEvent) {
	if l.cfg.Observer != nil {
		l.cfg.Observer(ev)
	}
}

// metrics returns the registry the lab's instrumentation records into.
func (l *Lab) metrics() *telemetry.Registry {
	if l.cfg.Metrics != nil {
		return l.cfg.Metrics
	}
	return telemetry.Default()
}

// cacheHit and cacheMiss count persistent-cache outcomes per simulator —
// the lab-level view of whether an IPC table request fell through to a
// full population sweep.
func (l *Lab) cacheHit(sim string) {
	l.metrics().Counter("mcbench_lab_cache_hits_total",
		"IPC tables served from the persistent results cache",
		telemetry.L("sim", sim)).Inc()
}

func (l *Lab) cacheMiss(sim string) {
	l.metrics().Counter("mcbench_lab_cache_misses_total",
		"IPC table cache misses that fell through to a full sweep",
		telemetry.L("sim", sim)).Inc()
}

// observeRun brackets a product computation with start/done events and a
// telemetry span. The span rides the context into the simulation kernel,
// which charges each phase (trace load, model build, warmup,
// fast-forward, measured window, store save) as it crosses the boundary;
// on success the breakdown and the end-to-end latency are recorded into
// the lab's registry.
func observeRun[V any](l *Lab, ctx context.Context, ev ProductEvent, rows func(V) int, compute func(context.Context) (V, error)) (V, error) {
	ev.Phase = "start"
	l.observe(ev)
	sp := telemetry.StartSpan()
	start := time.Now()
	v, err := compute(telemetry.NewContext(ctx, sp))
	ev.Phase, ev.Err, ev.Elapsed = "done", err, time.Since(start)
	if err == nil {
		ev.Rows = rows(v)
		l.recordProduct(ev, sp)
	}
	l.observe(ev)
	return v, err
}

// recordProduct files one successful product computation into the lab
// registry: total latency keyed by the product identity, plus one
// observation per span phase totalling the time that product spent in it.
func (l *Lab) recordProduct(ev ProductEvent, sp *telemetry.Span) {
	r := l.metrics()
	sampling := "exact"
	if ev.Sim == "detailed" && l.cfg.Sampling.Enabled() {
		sampling = "sampled"
	}
	r.Histogram("mcbench_lab_product_seconds",
		"end-to-end latency of expensive lab products",
		telemetry.L("sim", ev.Sim),
		telemetry.L("cores", strconv.Itoa(ev.Cores)),
		telemetry.L("policy", ev.Policy),
		telemetry.L("sampling", sampling)).ObserveDuration(ev.Elapsed)
	for _, ph := range sp.Breakdown() {
		r.Histogram("mcbench_lab_phase_seconds",
			"time spent per simulation phase within a product computation",
			telemetry.L("sim", ev.Sim),
			telemetry.L("phase", ph.Name)).Observe(int64(ph.Total))
	}
}

// NewLab creates a Lab with the given configuration. A nil Config.Source
// means the paper's fixed suite.
func NewLab(cfg Config) *Lab {
	src := cfg.Source
	if src == nil {
		src = bench.NewSuite()
		cfg.Source = src
	}
	return &Lab{cfg: cfg, src: src}
}

// Config returns the lab's configuration.
func (l *Lab) Config() Config { return l.cfg }

// Source returns the benchmark source the lab studies.
func (l *Lab) Source() bench.Source { return l.src }

// Provider returns the lab's source bound to its configured trace
// length — the handle everything that needs a raw trace resolves
// through. Traces build lazily on first use; consumers whose use of a
// trace is one-shot (model building, the alone measurements) release it
// afterwards so resident memory tracks the in-flight working set.
func (l *Lab) Provider() bench.Provider { return bench.At(l.src, l.cfg.TraceLen) }

// sourceKey is the identity the lab's persisted products are keyed by.
// The default suite maps to the empty string so cache files written
// before sources existed stay loadable.
func (l *Lab) sourceKey() string {
	if name := l.src.Name(); name != "suite" {
		return name
	}
	return ""
}

// Names returns the benchmark names in index order. It never builds a
// trace (the order is the source definition order), so it is infallible.
func (l *Lab) Names() []string {
	l.namesOnce.Do(func() { l.names = l.src.Names() })
	return l.names
}

// Models returns the BADCO models of every benchmark, building them on
// first use (two detailed calibration runs per benchmark, in parallel)
// through ModelsFor, so they are the very models ad-hoc jobs get.
func (l *Lab) Models(ctx context.Context) (map[string]*badco.Model, error) {
	return l.models.get(ctx, func() (map[string]*badco.Model, error) {
		return observeRun(l, ctx, ProductEvent{Sim: "models"},
			func(m map[string]*badco.Model) int { return len(m) },
			func(ctx context.Context) (map[string]*badco.Model, error) {
				models, _, err := l.ModelsFor(ctx, l.Names())
				return models, err
			})
	})
}

// ModelsFor returns the BADCO models of the named benchmarks. Each
// benchmark's model is built at most once per lab, with single-flight
// semantics: concurrent callers share one build, and a failed or
// cancelled build is not memoized. Builds run in parallel on the
// simulation budget; each trace is resolved just before its calibration
// runs and released right after, so peak trace memory is
// O(parallelism · TraceLen) instead of O(B · TraceLen), the property
// that makes paper-scale populations (B up to 512) fit a small host.
// built counts the models this call built itself.
func (l *Lab) ModelsFor(ctx context.Context, names []string) (models map[string]*badco.Model, built int, err error) {
	// Models already built are read without a simulation slot, so a job
	// whose models are all memoized never queues behind running sweeps.
	models = make(map[string]*badco.Model, len(names))
	var missing []string
	for _, name := range names {
		if m, ok := l.model.cached(name); ok {
			models[name] = m
		} else {
			missing = append(missing, name)
		}
	}
	got := make([]*badco.Model, len(missing))
	errs := make([]error, len(missing))
	var builds atomic.Int64
	prov := l.Provider()
	if err := multicore.RunBounded(ctx, len(missing), func(i int) {
		got[i], errs[i] = l.model.do(ctx, missing[i], func() (*badco.Model, error) {
			builds.Add(1)
			return multicore.BuildModel(ctx, prov, missing[i], badco.DefaultBuildConfig())
		})
	}); err != nil {
		return nil, 0, err
	}
	for i, name := range missing {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		models[name] = got[i]
	}
	return models, int(builds.Load()), nil
}

// Simulate is the one ad-hoc run path: the library's Simulate and Sweep,
// the public Lab.Simulate, the server's simulate and sweep jobs and the
// CLI's sim all run through it. It checks the run with multicore.Check
// at the lab's trace length, takes the BADCO models of the distinct
// benchmarks from the lab's model memo (ModelsFor) when the engine
// needs them, and sweeps the workloads on the simulation budget. It
// returns the results, indexed like workloads, the distinct benchmark
// names and the number of models this call built. A failed call returns
// nil names exactly when Check rejected the run; err is then Check's
// error, unwrapped, for each front end to report under its own prefix
// and hints. Traces the sweep resolved stay in the lab's source for the
// caller to release.
func (l *Lab) Simulate(ctx context.Context, spec multicore.Spec, workloads [][]string, cores int) (results []multicore.Result, names []string, built int, err error) {
	prov := l.Provider()
	ws, names, err := multicore.Check(prov, spec, workloads, cores)
	if err != nil {
		return nil, nil, 0, err
	}
	var models map[string]*badco.Model
	if spec.Engine == multicore.BADCO {
		if models, built, err = l.ModelsFor(ctx, names); err != nil {
			return nil, names, 0, err
		}
	}
	results, err = multicore.Sweep(ctx, ws, spec, prov, models)
	return results, names, built, err
}

// resultStore returns the persistent store, opened once, or nil when
// CacheDir is unset (or unusable — persistence is best-effort).
func (l *Lab) resultStore() *results.Store {
	l.storeOnce.Do(func() {
		if l.cfg.CacheDir == "" {
			return
		}
		if s, err := results.Open(l.cfg.CacheDir); err == nil {
			if l.cfg.RemoteFetch != nil {
				s.SetFetch(results.Fetcher(l.cfg.RemoteFetch))
			}
			s.Instrument(l.metrics())
			l.store = s
		}
	})
	return l.store
}

// maxEnumerate bounds the population size Population will materialise
// as a full enumeration when no explicit limit is configured; anything
// larger falls back to a fallbackPopulation-sized uniform sample. The
// bound comfortably covers the paper's geometries (12650 workloads at
// 4 cores over the suite) while keeping a large scaled source from
// enumerating billions of workloads into memory.
const (
	maxEnumerate       = 100_000
	fallbackPopulation = 10_000
)

// Population returns the workload population for the given core count:
// the full enumeration where it is tractable (2 and 4 cores over the
// paper's suite) and a uniform sample where it is not — per Pop8Size for
// 8 cores, Pop4Limit for 4, and PopLimit for any count (the scaled-source
// knob); with no limit configured, populations beyond maxEnumerate are
// sampled at fallbackPopulation rather than enumerated. Sampling draws
// from the full C(B+K-1, K) multiset population, whose size may saturate
// uint64 for large sources; populations are pure combinatorics — no
// simulation — so this is infallible.
func (l *Lab) Population(cores int) *workload.Population {
	pop, _ := l.pops.do(context.Background(), cores, func() (*workload.Population, error) {
		b := len(l.Names())
		total, exact := workload.PopulationSize(b, cores)
		limit := 0
		switch {
		case cores == 8:
			limit = l.cfg.Pop8Size
		case cores == 4 && l.cfg.Pop4Limit > 0:
			limit = l.cfg.Pop4Limit
		}
		if limit == 0 {
			limit = l.cfg.PopLimit
		}
		if limit == 0 && (!exact || total > maxEnumerate) {
			limit = fallbackPopulation
		}
		if limit > 0 && (!exact || uint64(limit) < total) {
			rng := rand.New(rand.NewSource(l.cfg.Seed + int64(cores)))
			return workload.SampleUniform(rng, b, cores, limit), nil
		}
		return workload.Enumerate(b, cores), nil
	})
	return pop
}

// isFullPopulation reports whether n workloads cover the whole multiset
// population of the lab's source at the given core count.
func (l *Lab) isFullPopulation(n, cores int) bool {
	size, exact := workload.PopulationSize(len(l.Names()), cores)
	return exact && uint64(n) == size
}

// toMulticore converts a workload of benchmark indices into names.
func (l *Lab) toMulticore(w workload.Workload) multicore.Workload {
	names := l.Names()
	out := make(multicore.Workload, len(w))
	for i, b := range w {
		out[i] = names[b]
	}
	return out
}

// BadcoIPC returns the per-workload per-core IPC table of the population
// for (cores, policy), simulated with BADCO machines. Tables are
// memoized (and persisted when CacheDir is set); the first caller per key
// runs the full population sweep while concurrent callers for the same
// key block on it, and different keys sweep in parallel.
func (l *Lab) BadcoIPC(ctx context.Context, cores int, policy cache.PolicyName) ([][]float64, error) {
	return l.badcoIPC.do(ctx, ipcKey{cores, policy}, func() ([][]float64, error) {
		return l.ipcTable(ctx, SimBadco, cores, policy, func(ctx context.Context) (table, ci, cv [][]float64, err error) {
			models, err := l.Models(ctx)
			if err != nil {
				return nil, nil, nil, err
			}
			l.badcoSweeps.Add(1)
			pop := l.Population(cores)
			ws := make([]multicore.Workload, pop.Size())
			for i, w := range pop.Workloads {
				ws[i] = l.toMulticore(w)
			}
			// A warmed protocol (Config.Warmup) runs each workload's prefix
			// once per policy: BADCO is cheap enough that sharing it across
			// policies buys nothing.
			table, ci, cv, err = l.sweep(ctx, ws, l.runSpec(SimBadco, policy), nil, models)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("experiments: BADCO sweep (%d cores, %s): %w", cores, policy, err)
			}
			return table, ci, cv, nil
		})
	})
}

// ipcTable serves one population IPC table from the persistent cache, or
// computes it under the product's observer span and persists it.
func (l *Lab) ipcTable(ctx context.Context, sim Simulator, cores int, policy cache.PolicyName, compute func(context.Context) (table, ci, cv [][]float64, err error)) ([][]float64, error) {
	id := l.tableIdentity(sim, cores, policy)
	if table, ok := l.loadCached(id); ok {
		l.cacheHit(string(sim))
		l.observe(ProductEvent{Sim: string(sim), Cores: cores, Policy: string(policy),
			Phase: "done", Cached: true, Rows: len(table)})
		return table, nil
	}
	l.cacheMiss(string(sim))
	ev := ProductEvent{Sim: string(sim), Cores: cores, Policy: string(policy)}
	return observeRun(l, ctx, ev, func(t [][]float64) int { return len(t) }, func(ctx context.Context) ([][]float64, error) {
		table, ci, cv, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		stop := telemetry.FromContext(ctx).Time("store_save")
		l.saveCached(id, table, ci, cv)
		stop()
		return table, nil
	})
}

// runSpec is the lab's run protocol for one simulator and policy: the
// Config.Warmup prefix for both engines, and Config.Sampling for the
// detailed one only (BADCO is already fast).
func (l *Lab) runSpec(sim Simulator, policy cache.PolicyName) multicore.Spec {
	spec := multicore.Spec{Engine: multicore.BADCO, Policy: policy, Warmup: uint64(l.cfg.Warmup)}
	if sim == SimDetailed {
		spec.Engine, spec.Sampling = multicore.Detailed, l.cfg.Sampling
	}
	return spec
}

// sweep runs the workloads under the spec and splits the results into
// the IPC table and, for a sampled spec, its confidence and cv columns
// (nil for exact runs, whose IPC is not an estimate).
func (l *Lab) sweep(ctx context.Context, ws []multicore.Workload, spec multicore.Spec, traces multicore.TraceSource, models map[string]*badco.Model) (table, ci, cv [][]float64, err error) {
	results, err := multicore.Sweep(ctx, ws, spec, traces, models)
	if err != nil {
		return nil, nil, nil, err
	}
	table = make([][]float64, len(results))
	for i, r := range results {
		table[i] = r.IPC
	}
	if spec.Sampling.Enabled() {
		ci = make([][]float64, len(results))
		cv = make([][]float64, len(results))
		for i, r := range results {
			ci[i], cv[i] = r.CIHalf, r.CV
		}
	}
	return table, ci, cv, nil
}

// DetSample returns the population indices of the workloads simulated
// with the detailed model for the given core count: the full population
// for 2 cores (the paper simulates all 253 workloads with Zesto),
// otherwise a DetailedCount random subset (paper: 250 for 4 and 8 cores).
func (l *Lab) DetSample(cores int) []int {
	idx, _ := l.detSample.do(context.Background(), cores, func() ([]int, error) {
		n := l.Population(cores).Size()
		if cores <= 2 || n <= l.cfg.DetailedCount+3 {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			return idx, nil
		}
		rng := rand.New(rand.NewSource(l.cfg.Seed + 100 + int64(cores)))
		return rng.Perm(n)[:l.cfg.DetailedCount], nil
	})
	return idx
}

// DetailedIPC returns the per-workload per-core IPC table over the
// DetSample workloads for (cores, policy), simulated with the detailed
// model. Row i corresponds to DetSample(cores)[i].
func (l *Lab) DetailedIPC(ctx context.Context, cores int, policy cache.PolicyName) ([][]float64, error) {
	return l.detIPC.do(ctx, ipcKey{cores, policy}, func() ([][]float64, error) {
		return l.ipcTable(ctx, SimDetailed, cores, policy, func(ctx context.Context) (table, ci, cv [][]float64, err error) {
			return l.detailedSweep(ctx, cores, policy)
		})
	})
}

// detailedSweep computes one detailed IPC table, plus its confidence and
// cv columns when Config.Sampling is set. With a positive Config.Warmup,
// a case-study policy is served from the grouped shared-warmup sweep
// (all policies at once, one warmed prefix per workload); any other
// policy warms alone. A spec that also sets sampling goes to the plain
// sweep, whose Run refuses the combination before simulating anything.
// The warmup may exceed the trace length (a long warming prefix before a
// short measured sample).
func (l *Lab) detailedSweep(ctx context.Context, cores int, policy cache.PolicyName) (table, ci, cv [][]float64, err error) {
	spec := l.runSpec(SimDetailed, policy)
	if spec.Warmup > 0 && spec.Sampling == (multicore.SamplingSpec{}) {
		if slices.Contains(Policies(), policy) {
			group, err := l.detShared.do(ctx, cores, func() (map[cache.PolicyName][][]float64, error) {
				return l.detailedSharedSweep(ctx, cores, Policies())
			})
			return group[policy], nil, nil, err
		}
		// Off the case-study list there is nothing to share the prefix
		// with: warm this policy's runs on their own.
		group, err := l.detailedSharedSweep(ctx, cores, []cache.PolicyName{policy})
		return group[policy], nil, nil, err
	}
	l.detSweeps.Add(1)
	// The sweep resolves traces lazily through the source: only
	// benchmarks that actually appear in the sample are ever built.
	table, ci, cv, err = l.sweep(ctx, l.detWorkloads(cores), spec, l.Provider(), nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: detailed sweep (%d cores, %s, %s): %w", cores, policy, spec.Sampling, err)
	}
	return table, ci, cv, nil
}

// detWorkloads returns the DetSample workloads, in sample order.
func (l *Lab) detWorkloads(cores int) []multicore.Workload {
	pop := l.Population(cores)
	sample := l.DetSample(cores)
	ws := make([]multicore.Workload, len(sample))
	for i, wi := range sample {
		ws[i] = l.toMulticore(pop.Workloads[wi])
	}
	return ws
}

// detailedSharedSweep runs the detailed sample once per workload to the
// warmup boundary and measures every requested policy from the shared
// prefix. The whole group counts as one sweep: warmup dominates the cost
// the per-policy tables used to pay k times over.
//
// The per-workload body must not call RunBounded (it already holds a
// slot), so the policy fan-out is sequential within each workload; the
// sample provides the parallelism, and peak memory holds one warmup
// checkpoint per simulation slot rather than per workload.
func (l *Lab) detailedSharedSweep(ctx context.Context, cores int, pols []cache.PolicyName) (map[cache.PolicyName][][]float64, error) {
	l.detSweeps.Add(1)
	ws := l.detWorkloads(cores)
	prov := l.Provider()
	warm := uint64(l.cfg.Warmup)
	tables := make(map[cache.PolicyName][][]float64, len(pols))
	for _, p := range pols {
		tables[p] = make([][]float64, len(ws))
	}
	errs := make([]error, len(ws))
	if err := multicore.RunBounded(ctx, len(ws), func(i int) {
		cp, err := multicore.DetailedWarmup(ctx, ws[i], prov, pols[0], warm)
		if err != nil {
			errs[i] = err
			return
		}
		for _, p := range pols {
			r, err := multicore.DetailedFrom(ctx, cp, p, 0)
			if err != nil {
				errs[i] = err
				return
			}
			tables[p][i] = r.IPC
		}
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("experiments: shared-warmup detailed sweep (%d cores): %w", cores, err)
	}
	return tables, nil
}

// tableIdentity builds the persisted identity of the (sim, cores,
// policy) population IPC table — the one key it is loaded, saved and
// fleet-sharded under. Detailed tables cover the DetSample of the
// population and always name the population it was drawn from
// (DetSample is deterministic given the seed and population): two
// configs with equal sample sizes but different Pop4Limit/Pop8Size must
// not share a table, and stamping even full-population tables keeps
// legacy un-stamped files — written by versions that never read them
// back — permanently unloadable. The sampling spec is folded in only for
// the detailed simulator: BADCO tables never run sampled, and stamping
// them would fragment their caches for no reason.
func (l *Lab) tableIdentity(sim Simulator, cores int, policy cache.PolicyName) results.IPCTable {
	t := results.IPCTable{Identity: results.Identity{
		Simulator: string(sim), Cores: cores, Policy: string(policy),
		TraceLen: l.cfg.TraceLen, Population: l.Population(cores).Size(), Seed: l.cfg.Seed,
		Source: l.sourceKey(), Warmup: l.cfg.Warmup,
	}}
	if sim == SimDetailed {
		t.Population, t.Universe = len(l.DetSample(cores)), t.Population
		if s := l.cfg.Sampling; s.Enabled() {
			t.SampleUnit, t.SampleWindow = int(s.Unit), int(s.Window)
			t.SampleWarmup, t.SampleWarm = int(s.Warmup), int(s.Warm)
		}
	}
	return t
}

// loadCached fetches a persisted IPC table if CacheDir is configured.
func (l *Lab) loadCached(id results.IPCTable) ([][]float64, bool) {
	store := l.resultStore()
	if store == nil {
		return nil, false
	}
	t, ok, err := store.Load(id)
	if err != nil || !ok {
		return nil, false
	}
	return t.IPC, true
}

// saveCached persists an IPC table, with the confidence and cv columns
// of a sampled sweep, if CacheDir is configured; failures are non-fatal
// (the table is still returned to the caller).
func (l *Lab) saveCached(id results.IPCTable, table, ci, cv [][]float64) {
	store := l.resultStore()
	if store == nil {
		return
	}
	id.IPC, id.CI, id.CV = table, ci, cv
	_ = store.Save(&id)
}

// RefIPC returns the per-benchmark single-thread reference IPC on the
// cores-sized machine (benchmark alone, LRU uncore, BADCO), used by the
// speedup metrics WSU and HSU.
func (l *Lab) RefIPC(ctx context.Context, cores int) ([]float64, error) {
	return l.refIPC.do(ctx, cores, func() ([]float64, error) {
		return observeRun(l, ctx, ProductEvent{Sim: "ref", Cores: cores},
			func(v []float64) int { return len(v) },
			func(ctx context.Context) ([]float64, error) { return l.refIPCCompute(ctx, cores) })
	})
}

// refIPCCompute is the RefIPC computation behind its memo and observer.
func (l *Lab) refIPCCompute(ctx context.Context, cores int) ([]float64, error) {
	models, err := l.Models(ctx)
	if err != nil {
		return nil, err
	}
	names := l.Names()
	// Alone on the same uncore configuration as the K-core machine:
	// the uncore is built for `cores` but only core 0 is populated.
	// The runs are independent, so they draw on the shared
	// simulation budget like the sweeps do.
	out := make([]float64, len(names))
	errs := make([]error, len(names))
	if err := multicore.RunBounded(ctx, len(names), func(i int) {
		out[i], errs[i] = aloneOn(cores, multicore.Workload{names[i]}, models)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// aloneOn runs one benchmark alone against a cores-sized LRU uncore with
// BADCO and returns its IPC.
func aloneOn(cores int, w multicore.Workload, models map[string]*badco.Model) (float64, error) {
	cfg := uncoreConfigFor(cores)
	unc, err := newUncore(cfg)
	if err != nil {
		return 0, err
	}
	m := models[w[0]]
	ma, err := badco.NewMachine(0, m, unc)
	if err != nil {
		return 0, err
	}
	end := ma.RunIterations(1)
	if end == 0 {
		return 0, fmt.Errorf("experiments: zero cycles for %s", w[0])
	}
	return float64(m.TraceLen) / float64(end), nil
}

// RefTable expands per-benchmark reference IPCs into a per-workload
// per-core table aligned with the population.
func (l *Lab) RefTable(ctx context.Context, cores int) ([][]float64, error) {
	pop := l.Population(cores)
	ref, err := l.RefIPC(ctx, cores)
	if err != nil {
		return nil, err
	}
	table := make([][]float64, pop.Size())
	for i, w := range pop.Workloads {
		row := make([]float64, len(w))
		for k, b := range w {
			row[k] = ref[b]
		}
		table[i] = row
	}
	return table, nil
}

// refRows picks the reference rows for a subset of population indices.
func refRows(ref [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = ref[j]
	}
	return out
}

// Diffs returns the per-workload differences d(w) between policies X and
// Y under the metric, over the BADCO population table (the CLT-domain
// values driving the confidence machinery).
func (l *Lab) Diffs(ctx context.Context, cores int, m metrics.Metric, x, y cache.PolicyName) ([]float64, error) {
	ref, err := l.RefTable(ctx, cores)
	if err != nil {
		return nil, err
	}
	ipcX, err := l.BadcoIPC(ctx, cores, x)
	if err != nil {
		return nil, err
	}
	ipcY, err := l.BadcoIPC(ctx, cores, y)
	if err != nil {
		return nil, err
	}
	return m.Diffs(m.Throughputs(ipcX, ref), m.Throughputs(ipcY, ref)), nil
}

// DetailedDiffs is Diffs over the detailed-simulator sample.
func (l *Lab) DetailedDiffs(ctx context.Context, cores int, m metrics.Metric, x, y cache.PolicyName) ([]float64, error) {
	refAll, err := l.RefTable(ctx, cores)
	if err != nil {
		return nil, err
	}
	ref := refRows(refAll, l.DetSample(cores))
	ipcX, err := l.DetailedIPC(ctx, cores, x)
	if err != nil {
		return nil, err
	}
	ipcY, err := l.DetailedIPC(ctx, cores, y)
	if err != nil {
		return nil, err
	}
	return m.Diffs(m.Throughputs(ipcX, ref), m.Throughputs(ipcY, ref)), nil
}

// BadcoDiffsAt is Diffs restricted to a subset of population indices
// (e.g. the detailed sample, for Fig. 4's middle bars).
func (l *Lab) BadcoDiffsAt(ctx context.Context, cores int, m metrics.Metric, x, y cache.PolicyName, idx []int) ([]float64, error) {
	all, err := l.Diffs(ctx, cores, m, x, y)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = all[j]
	}
	return out, nil
}

// MPKI returns per-benchmark LLC misses per kilo-instruction, measured
// with the detailed simulator running each benchmark alone on the 1-core
// LRU configuration (the Table IV measurement).
func (l *Lab) MPKI(ctx context.Context) ([]float64, error) {
	return l.mpki.get(ctx, func() ([]float64, error) {
		return observeRun(l, ctx, ProductEvent{Sim: "mpki"},
			func(v []float64) int { return len(v) },
			func(ctx context.Context) ([]float64, error) { return l.mpkiCompute(ctx) })
	})
}

// mpkiCompute is the MPKI measurement behind its memo and observer.
func (l *Lab) mpkiCompute(ctx context.Context) ([]float64, error) {
	names := l.Names()
	prov := l.Provider()
	out := make([]float64, len(names))
	errs := make([]error, len(names))
	if err := multicore.RunBounded(ctx, len(names), func(i int) {
		tr, err := prov.Trace(ctx, names[i])
		if err != nil {
			errs[i] = err
			return
		}
		defer prov.Release(names[i])
		out[i], errs[i] = measureMPKI(tr)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
