// Package experiments reproduces every table and figure of the paper's
// evaluation, plus the extension experiments beyond it. A Lab owns the
// experimental state — benchmark traces, BADCO models, workload
// populations and memoized IPC tables — and each experiment reads from
// it and emits a printable Table. One value names each expensive Lab
// product: the normalized Request (simulator, core count, policy). It is
// the product's memo key, the source of its persisted identity and
// telemetry labels, the identity its ProductEvents carry, and the unit
// campaign plans dedup and the fleet shards by.
//
// Each experiment registers an Experiment (see registry.go), a struct of
// its name, a Run function producing its Table and optional Requests and
// Chart functions; Requests declares exactly the expensive Lab products
// the run reads (the golden test pins every plan exact). cmd/mcbench and
// the public mcbench package dispatch through the registry instead of
// hard-coded switches.
//
// All lazy state is memoized with per-key single-flight semantics, in
// memo.Group values, so a Lab is safe for concurrent use: two goroutines asking for the same
// table block on one computation, while different tables build in
// parallel. Lab.Warm precomputes a whole campaign's plan with bounded
// parallelism. Everything is context-aware: cancelling the context
// aborts in-flight population sweeps promptly, and failed (cancelled)
// computations are not memoized, so a later call retries cleanly.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcbench/internal/badco"
	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/memo"
	"mcbench/internal/metrics"
	"mcbench/internal/multicore"
	"mcbench/internal/profile"
	"mcbench/internal/results"
	"mcbench/internal/telemetry"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
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

	// CacheDir, when non-empty, persists every product but the BADCO
	// models across runs via the results package: the IPC tables (the
	// expensive population sweeps), the reference IPCs and the MPKI.
	CacheDir string

	// RemoteFetch, when non-nil (and CacheDir is set), is installed as the
	// store's read-through fetcher: a local cache miss consults it before
	// falling back to compute. The fleet wires it to peer /cache/{key}
	// fetches so any node can serve any table; fetched bytes are
	// checksum-verified before use and any failure is a plain miss.
	RemoteFetch func(key string) (data []byte, ok bool, err error)

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

// ProductEvent reports the lifecycle of one expensive Lab product. The
// embedded Request is the product's normalized identity, the same value
// a campaign plan names it by. Phase is "start" when a computation
// begins and "done" when it finishes (Err non-nil on failure); a product
// served from the persistent cache emits a single "done" with Cached
// set.
type ProductEvent struct {
	Request
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

// Lab lazily builds and caches all experimental state. The pure products
// (benchmark names, populations, detailed-sample indices) are cheap and
// infallible, and the persistent store handle is opened once; everything
// that simulates — traces, models, IPC tables, reference IPCs, the MPKI
// measurement, profiles — is context-aware and memoized with
// single-flight semantics.
type Lab struct {
	cfg Config
	src bench.Source // the benchmark population under study

	namesOnce sync.Once
	names     []string // benchmark order (source order)

	models   memo.Group[struct{}, map[string]*badco.Model] // every benchmark's model, drawn from model
	model    memo.Group[string, *badco.Model]              // per benchmark, shared with ad-hoc jobs
	profiles memo.Group[struct{}, []*profile.Profile]      // per benchmark: microarch-independent profile

	store func() (*results.Store, error) // see Store

	pops      memo.Group[int, *workload.Population]
	detSample memo.Group[int, []int] // population indices simulated in detail
	// ipc holds every persisted product: the BADCO and detailed
	// population tables, and the reference IPC and MPKI vectors as
	// one-column tables.
	ipc memo.Group[Request, [][]float64]

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
// the lab-level view of whether a persisted product's request fell
// through to a computation (a full population sweep, for the tables).
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
func observeRun[V any](l *Lab, ctx context.Context, r Request, rows func(V) int, compute func(context.Context) (V, error)) (V, error) {
	ev := ProductEvent{Request: r, Phase: "start"}
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
	r.Histogram("mcbench_lab_product_seconds",
		"end-to-end latency of expensive lab products",
		telemetry.L("sim", string(ev.Sim)),
		telemetry.L("cores", strconv.Itoa(ev.Cores)),
		telemetry.L("policy", string(ev.Policy))).ObserveDuration(ev.Elapsed)
	for _, ph := range sp.Breakdown() {
		r.Histogram("mcbench_lab_phase_seconds",
			"time spent per simulation phase within a product computation",
			telemetry.L("sim", string(ev.Sim)),
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
	l := &Lab{cfg: cfg, src: src}
	l.store = sync.OnceValues(l.openStore)
	return l
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
	return l.models.Do(ctx, struct{}{}, func() (map[string]*badco.Model, error) {
		return observeRun(l, ctx, Request{Sim: SimModels},
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
		if m, ok := l.model.Cached(name); ok {
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
		got[i], errs[i] = l.model.Do(ctx, missing[i], func() (*badco.Model, error) {
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

// Store returns the lab's persistent results store, opened once: nil
// with a nil error when CacheDir is unset, and the Open error when the
// directory is unusable. It is the process's one handle on the
// directory; the server lists and serves stored tables through it.
func (l *Lab) Store() (*results.Store, error) { return l.store() }

func (l *Lab) openStore() (*results.Store, error) {
	if l.cfg.CacheDir == "" {
		return nil, nil
	}
	s, err := results.Open(l.cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	if l.cfg.RemoteFetch != nil {
		s.SetFetch(results.Fetcher(l.cfg.RemoteFetch))
	}
	s.Instrument(l.metrics())
	return s, nil
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
	pop, _ := l.pops.Do(context.Background(), cores, func() (*workload.Population, error) {
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
	r := Request{Sim: SimBadco, Cores: cores, Policy: policy}
	return l.ipcTable(ctx, r, func(ctx context.Context) ([][]float64, error) {
		models, err := l.Models(ctx)
		if err != nil {
			return nil, err
		}
		l.badcoSweeps.Add(1)
		pop := l.Population(cores)
		ws := make([]multicore.Workload, pop.Size())
		for i, w := range pop.Workloads {
			ws[i] = l.toMulticore(w)
		}
		table, err := sweep(ctx, ws, multicore.Spec{Engine: multicore.BADCO, Policy: policy}, nil, models)
		if err != nil {
			return nil, fmt.Errorf("experiments: BADCO sweep (%d cores, %s): %w", cores, policy, err)
		}
		return table, nil
	})
}

// ipcTable memoizes one persisted product under its request: it serves
// the table from the persistent cache, or computes it under the
// product's observer span and persists it.
func (l *Lab) ipcTable(ctx context.Context, r Request, compute func(context.Context) ([][]float64, error)) ([][]float64, error) {
	return l.ipc.Do(ctx, r, func() ([][]float64, error) {
		id := l.tableIdentity(r)
		if table, ok := l.loadCached(id); ok {
			l.cacheHit(string(r.Sim))
			l.observe(ProductEvent{Request: r, Phase: "done", Cached: true, Rows: len(table)})
			return table, nil
		}
		l.cacheMiss(string(r.Sim))
		return observeRun(l, ctx, r, func(t [][]float64) int { return len(t) }, func(ctx context.Context) ([][]float64, error) {
			table, err := compute(ctx)
			if err != nil {
				return nil, err
			}
			stop := telemetry.FromContext(ctx).Time("store_save")
			l.saveCached(id, table)
			stop()
			return table, nil
		})
	})
}

// sweep runs the workloads under the spec and returns their IPC table.
func sweep(ctx context.Context, ws []multicore.Workload, spec multicore.Spec, traces multicore.TraceSource, models map[string]*badco.Model) ([][]float64, error) {
	results, err := multicore.Sweep(ctx, ws, spec, traces, models)
	if err != nil {
		return nil, err
	}
	table := make([][]float64, len(results))
	for i, r := range results {
		table[i] = r.IPC
	}
	return table, nil
}

// DetSample returns the population indices of the workloads simulated
// with the detailed model for the given core count: the full population
// for 2 cores (the paper simulates all 253 workloads with Zesto),
// otherwise a DetailedCount random subset (paper: 250 for 4 and 8 cores).
func (l *Lab) DetSample(cores int) []int {
	idx, _ := l.detSample.Do(context.Background(), cores, func() ([]int, error) {
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
	r := Request{Sim: SimDetailed, Cores: cores, Policy: policy}
	return l.ipcTable(ctx, r, func(ctx context.Context) ([][]float64, error) {
		l.detSweeps.Add(1)
		// The sweep resolves traces lazily through the source: only
		// benchmarks that actually appear in the sample are ever built.
		table, err := sweep(ctx, l.detWorkloads(cores), multicore.Spec{Engine: multicore.Detailed, Policy: policy}, l.Provider(), nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: detailed sweep (%d cores, %s): %w", cores, policy, err)
		}
		return table, nil
	})
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

// tableIdentity builds the persisted identity of the request's product —
// the one key it is loaded, saved and fleet-sharded under. Detailed
// tables cover the DetSample of the population and always name the
// population it was drawn from (DetSample is deterministic given the
// seed and population): two configs with equal sample sizes but
// different Pop4Limit/Pop8Size must not share a table, and stamping even
// full-population tables keeps legacy un-stamped files — written by
// versions that never read them back — permanently unloadable. Every
// product is measured exactly from reset, so no identity names a warmup
// or sampling protocol. The reference IPC and MPKI vectors are measured
// alone on an LRU uncore, so their identity names one row per benchmark,
// policy LRU, and no seed (the seed draws populations, samples and
// trials, none of which enters them); MPKI runs on the one-core machine.
func (l *Lab) tableIdentity(r Request) results.IPCTable {
	t := results.IPCTable{Identity: results.Identity{
		Simulator: string(r.Sim), Cores: r.Cores, Policy: string(r.Policy),
		TraceLen: l.cfg.TraceLen, Seed: l.cfg.Seed, Source: l.sourceKey(),
	}}
	switch r.Sim {
	case SimRef, SimMPKI:
		t.Policy, t.Population, t.Seed = string(cache.LRU), len(l.Names()), 0
		if r.Sim == SimMPKI {
			t.Cores = 1
		}
		return t
	}
	t.Population = l.Population(r.Cores).Size()
	if r.Sim == SimDetailed {
		t.Population, t.Universe = len(l.DetSample(r.Cores)), t.Population
	}
	return t
}

// loadCached fetches a persisted IPC table if CacheDir is configured
// and usable.
func (l *Lab) loadCached(id results.IPCTable) ([][]float64, bool) {
	store, _ := l.Store()
	if store == nil {
		return nil, false
	}
	t, ok, err := store.Load(id)
	if err != nil || !ok {
		return nil, false
	}
	return t.IPC, true
}

// saveCached persists an IPC table if CacheDir is configured and
// usable; failures are non-fatal (the table is still returned to the
// caller).
func (l *Lab) saveCached(id results.IPCTable, table [][]float64) {
	store, _ := l.Store()
	if store == nil {
		return
	}
	id.IPC = table
	_ = store.Save(&id)
}

// RefIPC returns the per-benchmark single-thread reference IPC on the
// cores-sized machine (benchmark alone, LRU uncore, BADCO), used by the
// speedup metrics WSU and HSU. The vector is memoized and persisted like
// a population table.
func (l *Lab) RefIPC(ctx context.Context, cores int) ([]float64, error) {
	return l.vector(ctx, Request{Sim: SimRef, Cores: cores}, func(ctx context.Context) ([]float64, error) {
		return l.refIPCCompute(ctx, cores)
	})
}

// vector serves a per-benchmark product through ipcTable, as a
// one-column table with one row per benchmark, and returns a copy of
// the column.
func (l *Lab) vector(ctx context.Context, r Request, compute func(context.Context) ([]float64, error)) ([]float64, error) {
	table, err := l.ipcTable(ctx, r, func(ctx context.Context) ([][]float64, error) {
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		table := make([][]float64, len(v))
		for i := range v {
			table[i] = v[i : i+1 : i+1]
		}
		return table, nil
	})
	if err != nil {
		return nil, err
	}
	v := make([]float64, len(table))
	for i, row := range table {
		v[i] = row[0]
	}
	return v, nil
}

// refIPCCompute is the RefIPC measurement behind its memo and observer:
// each benchmark alone on the same uncore configuration as the K-core
// machine (the uncore is built for `cores` but only core 0 is
// populated).
func (l *Lab) refIPCCompute(ctx context.Context, cores int) ([]float64, error) {
	models, err := l.Models(ctx)
	if err != nil {
		return nil, err
	}
	return perBenchmark(ctx, l, func(name string) (float64, error) {
		return aloneOn(cores, multicore.Workload{name}, models)
	})
}

// perBenchmark computes one value per benchmark, indexed like Names().
// The computations are independent, so they run in parallel on the
// simulation budget like the sweeps do; the first failure by index
// fails the whole.
func perBenchmark[V any](ctx context.Context, l *Lab, f func(name string) (V, error)) ([]V, error) {
	names := l.Names()
	out := make([]V, len(names))
	errs := make([]error, len(names))
	if err := multicore.RunBounded(ctx, len(names), func(i int) {
		out[i], errs[i] = f(names[i])
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

// perTrace is perBenchmark over the benchmarks' traces: each trace is
// resolved just before f runs on it and released right after, so the
// traces need not stay resident.
func perTrace[V any](ctx context.Context, l *Lab, f func(*trace.Trace) (V, error)) ([]V, error) {
	prov := l.Provider()
	return perBenchmark(ctx, l, func(name string) (V, error) {
		tr, err := prov.Trace(ctx, name)
		if err != nil {
			var zero V
			return zero, err
		}
		defer prov.Release(name)
		return f(tr)
	})
}

// aloneOn runs one benchmark alone against a cores-sized LRU uncore with
// BADCO and returns its IPC.
func aloneOn(cores int, w multicore.Workload, models map[string]*badco.Model) (float64, error) {
	unc, err := uncore.New(uncore.ConfigFor(cores, cache.LRU))
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
// LRU configuration (the Table IV measurement). The vector is memoized
// and persisted like a population table.
func (l *Lab) MPKI(ctx context.Context) ([]float64, error) {
	return l.vector(ctx, Request{Sim: SimMPKI}, func(ctx context.Context) ([]float64, error) {
		return perTrace(ctx, l, measureMPKI)
	})
}
