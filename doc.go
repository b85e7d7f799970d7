// Package mcbench is a reproduction, in pure Go, of "Selecting Benchmark
// Combinations for the Evaluation of Multicore Throughput" (R. A.
// Velásquez, P. Michaud, A. Seznec — ISPASS 2013), exposed as a
// library: the module root is the public, context-aware API over the
// internal simulation stack.
//
// # Library usage
//
// Simulate runs one multiprogrammed workload with either simulator,
// configured by functional options:
//
//	r, err := mcbench.Simulate(ctx, []string{"mcf", "povray"},
//	    mcbench.WithPolicy(mcbench.DRRIP),
//	    mcbench.WithSimulator(mcbench.BADCO),
//	    mcbench.WithTraceLen(20000))
//
// Sweep does the same for many workloads at once, sharing traces and
// models and parallelising across the process-wide simulation budget.
//
// WithWarmup opens the measurement window after a warming prefix, the
// sample-simulation protocol: caches, predictors and prefetchers warm
// for n committed µops per thread, then IPC and cycles cover the quota
// beyond the boundary:
//
//	r, err := mcbench.Simulate(ctx, []string{"mcf", "povray"},
//	    mcbench.WithPolicy(mcbench.DRRIP),
//	    mcbench.WithQuota(10000),
//	    mcbench.WithWarmup(90000))
//
// Each run pays its own warmup; golden tests pin the warmed run to a
// per-step reference schedule (see the README's "Warmed runs").
//
// WithSampling trades exactness for time on long traces: the detailed
// engine measures one window per sampling unit (SMARTS-style systematic
// sampling), fast-forwards the rest functionally — caches and
// predictors stay warm, the out-of-order pipeline is skipped — and the
// per-window CPIs fold into a steady-state IPC estimate with a 0.95
// Student-t confidence interval:
//
//	r, err := mcbench.Simulate(ctx, []string{"mcf"},
//	    mcbench.WithSampling(10000, 2000, 2000),
//	    mcbench.WithTraceLen(10*mcbench.DefaultTraceLen))
//	// r.IPC[0] ± r.CIHalf[0] over r.Windows windows; r.CV
//
// Sampling requires the Detailed engine and is mutually exclusive with
// WithWarmup; the estimate deliberately excludes the cold-start
// transient a full run from reset includes. See the README's "Sampled
// simulation" section for the speed/accuracy frontier and the known
// bias modes (heterogeneous mixes fast-forward in lockstep, so singles
// and homogeneous mixes are the reliable regime).
//
// # Benchmark sources
//
// Workload names resolve through a Source — a named, lazily-memoized
// provider of benchmark traces — rather than a hard-wired list. The
// fixed 22-benchmark suite is just the default source; scaled synthetic
// populations ("scaled:B[:seed]", B up to 512) and directories of
// recorded traces ("dir:PATH") plug in through the same interface:
//
//	src, _ := mcbench.Suite("scaled:64:7")
//	r, err := mcbench.Simulate(ctx, []string{"high-005", "low-000"},
//	    mcbench.WithSuite(src))
//
// Sources build each trace on first use and release it on demand, so
// the one-shot consumers (BADCO model building, the alone-run
// measurements) keep only the in-flight working set resident instead of
// all B traces; detailed population sweeps retain the benchmarks they
// actually touch for the lab's lifetime.
// Suite(spec) returns process-shared instances (the Suites() registry),
// so repeated calls never regenerate traces a source already holds, and
// Config.Source points a whole Lab campaign at any source.
//
// A Lab owns a whole experiment campaign: memoized population sweeps,
// reference IPCs and MPKI measurements behind a single-flight guard,
// optionally persisted across processes via Config.CacheDir (keyed by
// source identity, among the other campaign parameters). Every
// registered experiment — the paper's figures and tables plus the
// extensions; see Experiments() — runs through it:
//
//	lab := mcbench.NewLab(mcbench.QuickConfig())
//	table, err := lab.Run(ctx, "fig6", 2)
//	table.Fprint(os.Stdout)
//
// # Serving
//
// Serve exposes the same engine as a long-running HTTP JSON service —
// a job queue over one shared Lab — and Client consumes it. Identical
// in-flight submissions coalesce onto one job server-side, so M
// clients asking for the same sweep cost one computation:
//
//	go mcbench.Serve(ctx, mcbench.DefaultConfig(), mcbench.ServeOptions{Addr: ":8080"})
//	...
//	c, err := mcbench.NewClient("http://127.0.0.1:8080")
//	st, err := c.SubmitExperiment(ctx, "fig6", 4)
//	res, err := c.Wait(ctx, st.ID)
//	fmt.Print(res.Text)
//
// Jobs stream progress (Client.Events) as the campaign's tables land,
// and cancelling the Serve context drains gracefully: completed sweeps
// are already persisted via Config.CacheDir, and a restarted server
// serves them from disk. The `mcbench serve` subcommand wraps Serve;
// see the README's "Serving" section for the HTTP surface.
//
// Servers federate into a fleet: a node started with ServeOptions.Join
// (the `serve -join` flag) registers as a worker of the coordinator at
// that address, holding its membership under a heartbeat lease. The
// coordinator shards campaign warm plans across workers by rendezvous
// hashing on each product's memo identity, collects the swept tables
// through the content-addressed result fabric (GET /cache/{key},
// CRC32-C-verified on arrival), and steals unfinished shards back from
// dead or straggling workers — the sharded result is bit-identical to
// the single-node run, with zero duplicate sweeps fleet-wide:
//
//	go mcbench.Serve(ctx, cfg, mcbench.ServeOptions{Addr: ":8390"}) // coordinator
//	go mcbench.Serve(ctx, cfg, mcbench.ServeOptions{Addr: ":8391", Join: "127.0.0.1:8390"})
//	go mcbench.Serve(ctx, cfg, mcbench.ServeOptions{Addr: ":8392", Join: "127.0.0.1:8390"})
//	...
//	st, err := c.SubmitWarm(ctx, products) // shards across the fleet
//
// The join handshake checks build identity and lab configuration, so a
// mixed-version fleet is rejected (409) instead of computing a mixed
// answer; see the README's "Distributed lab" section.
//
// The client is resilient by default and tunable via ClientOptions:
//
//	c, err := mcbench.NewClient("http://127.0.0.1:8080", mcbench.ClientOptions{
//		MaxRetries: 6,                      // 0 = default (4), negative = off
//		BaseDelay:  200 * time.Millisecond, // exponential backoff, jittered
//	})
//
// Connection errors and 503 rejections retry for every method — a 503
// means the submission was rejected before it was enqueued (nothing
// ran, nothing will), and its Retry-After header is honoured — while
// 429/502/504 retry idempotent GETs only. Events reconnects from its
// last-seen cursor across dropped polls, and Wait survives transient
// outages the same way. Server errors are typed:
//
//	var ae *mcbench.APIError
//	if errors.As(err, &ae) && ae.StatusCode == 503 { ... }
//	if mcbench.IsNotFound(err) { ... } // job ID gone (e.g. server restarted)
//
// # Observability
//
// The whole stack is instrumented through a dependency-free telemetry
// registry (internal/telemetry): lab products record end-to-end latency
// and a per-phase breakdown (trace load, model build, warmup,
// fast-forward, measure, store save) via context-carried spans, and the
// persistent store counts its saves, hits, misses and quarantines.
// Telemetry() snapshots the process-wide registry; a server exports its
// own at GET /metrics (Prometheus text exposition, or JSON via
// Client.Metrics), a fleet coordinator aggregates its workers at
// GET /fleet/metrics (Client.FleetMetrics), and ServeOptions.Pprof
// mounts net/http/pprof opt-in:
//
//	snap, err := c.Metrics(ctx)
//	fmt.Println(snap.Counter("mcbench_jobs_completed_total"))
//	st := c.Stats() // the client's own attempts/retries/latency
//
// `mcbench top` renders the live view in a terminal; `mcbench -timing`
// prints the phase table after a batch campaign. Recording is zero-alloc
// on the hot path, bounded ≤ 1% of simulator time (A/B it with
// MCBENCH_TELEMETRY=off bash benchmark/run.sh), and disabled entirely
// by that switch. See the README's "Observability" section for the
// metric catalogue.
//
// All entry points take a context.Context; cancellation aborts in-flight
// simulations promptly, and completed products stay memoized, so an
// interrupted campaign resumes where it stopped. The analysis machinery
// the paper builds on top of the simulators — throughput metrics, the
// CLT confidence model, the four sampling methods, cluster-based
// selection, the co-phase matrix method — is exported here as well; the
// runnable examples under examples/ exercise all of it through this
// package alone.
//
// The repository contains the paper's full experimental stack, built from
// scratch on the standard library:
//
//   - internal/trace — a 22-benchmark synthetic suite standing in for SPEC
//     CPU2006, with EIO-style binary serialisation;
//   - internal/bench — the benchmark-source layer: the fixed suite,
//     scaled procedural populations (B ∈ [12, 512]) and directory-backed
//     recorded traces behind one lazily-memoizing interface;
//   - internal/cache, internal/mem, internal/uncore — the shared memory
//     hierarchy with the five LLC replacement policies of the case study
//     (LRU, RND, FIFO, DIP, DRRIP) plus SRRIP, PLRU and SHiP for ablations;
//   - internal/cpu, internal/bpred — a detailed out-of-order core model
//     (the Zesto role) with the Table I front end (TAGE, BTAC, indirect
//     predictor, return address stack);
//   - internal/badco — the BADCO behavioural core models (the fast
//     approximate simulator);
//   - internal/multicore — multiprogrammed-workload simulation;
//   - internal/cophase — the co-phase matrix method of the paper's
//     footnote 4;
//   - internal/workload, internal/metrics, internal/stats,
//     internal/sampling — the paper's contribution: workload combinatorics,
//     throughput metrics, the CLT confidence model, and the four sampling
//     methods (random, balanced random, benchmark stratification, workload
//     stratification);
//   - internal/profile, internal/cluster — microarchitecture-independent
//     profiling and cluster analysis, powering the two Section II-B
//     selection methods (cluster-derived benchmark classes, representative
//     workload clustering);
//   - internal/experiments — drivers regenerating every table and figure,
//     with text charts from internal/plot;
//   - internal/serve — the experiment service: job queue, request dedup,
//     progress streaming and the cache-browsing API behind Serve/Client;
//   - internal/fleet — the distributed lab: rendezvous-hashed shard
//     partitioning, lease-based membership, work-stealing dispatch and
//     the worker-side join/heartbeat agent behind ServeOptions.Join;
//   - cmd/mcbench, cmd/tracegen — the command-line front ends.
//
// The experiments package is a concurrent campaign runner: a Lab memoizes
// its expensive products (population IPC tables per core count, policy
// and simulator; reference IPCs; the MPKI measurement) with per-key
// single-flight semantics, each experiment declares the products it
// reads as a []Request, and Lab.Warm precomputes a whole campaign's plan
// with bounded parallelism — concurrent requests for one table share a
// single population sweep while distinct tables sweep in parallel.
//
// Under the campaign sits an allocation-free, batch-scheduled simulation
// kernel: the multicore driver dispatches each core in minimum-clock
// batches (one StepUntil call, which returns the core's clock and
// committed count) instead of per µop — provably the same schedule,
// enforced bit-for-bit by golden tests against a retained per-step
// reference driver — and the cpu/cache/uncore hot paths run free of map
// traffic and steady-state allocations. A BADCO machine's StepUntil
// also memoizes its requests' physical addresses and skips prefetches
// of lines the LLC already holds, exactly, as tests against its per-node
// Step check. See README.md's Performance,
// "Warmed runs" and "Sampled simulation" sections, with measured
// speedups in BENCH_2.json and BENCH_9.json (bash benchmark/run.sh is
// the benchmark).
//
// The benchmarks in bench_test.go regenerate each table and figure.
package mcbench
