// Command mcbench regenerates the tables and figures of "Selecting
// Benchmark Combinations for the Evaluation of Multicore Throughput"
// (Velásquez, Michaud, Seznec — ISPASS 2013) on the reproduction's
// simulators.
//
// Usage:
//
//	mcbench [-quick] [-cores N] [-suite SPEC] <experiment>...
//	mcbench list
//	mcbench benches
//	mcbench sim <policy> <bench,bench,...>
//	mcbench serve [-addr HOST:PORT] [-workers N] [-queue N] [-join HOST:PORT] [-pprof]
//	mcbench top [-addr URL] [-interval D] [-n N]
//	mcbench version
//
// Experiments are dispatched through the registry in
// internal/experiments; `mcbench list` enumerates them. -quick runs a
// reduced campaign (smaller traces, subsampled populations, fewer
// Monte-Carlo trials) that finishes in a few minutes; the default
// campaign matches the paper's scale and may take much longer.
//
// -suite selects the benchmark source the campaign studies: "suite"
// (the paper's fixed 22 benchmarks), "scaled:B[:seed]" (B ∈ [12, 512]
// procedurally derived benchmarks), or "dir:PATH" (stored .mcbt
// traces). `mcbench benches` lists the active source's benchmarks.
//
// A SIGINT/SIGTERM cancels the campaign gracefully: in-flight population
// sweeps stop promptly, and every table completed before the interrupt
// is already persisted when -cache is set, so the next run resumes where
// this one stopped. `mcbench serve` rides the same signal path: a signal
// drains the server (running jobs are cancelled, completed sweeps are
// already persisted) and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mcbench"
	"mcbench/internal/bench"
	"mcbench/internal/buildinfo"
	"mcbench/internal/cache"
	"mcbench/internal/experiments"
	"mcbench/internal/multicore"
	"mcbench/internal/sigctx"
	"mcbench/internal/trace"
)

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code, so profile writers installed by
// startProfiles always run (os.Exit would skip deferred stops).
func realMain() int {
	quick := flag.Bool("quick", false, "reduced campaign (fast, lower resolution)")
	suiteSpec := flag.String("suite", "suite", "benchmark source: suite | scaled:B[:seed] | dir:PATH")
	cores := flag.Int("cores", 4, "core count for the single-core-count experiments (fig4/fig5/fig6/overhead/extensions)")
	cacheDir := flag.String("cache", "", "directory for persisting population sweeps across runs")
	plotFlag := flag.Bool("plot", false, "render figures as text charts in addition to tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit (pprof)")
	timing := flag.Bool("timing", false, "print the per-phase simulation timing breakdown after the campaign")
	flag.Usage = usage
	flag.Parse()

	if *cores < 1 {
		fmt.Fprintf(os.Stderr, "mcbench: -cores must be >= 1 (got %d)\n", *cores)
		return 2
	}
	if err := experiments.CheckCores(*cores); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench: -cores:", err)
		return 2
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}

	// SIGINT/SIGTERM cancel the campaign context; everything below —
	// warming, sweeps, experiment runs, the server's lifetime — stops
	// promptly when it fires. One signal path, one exit-code convention
	// (sigctx), shared by batch mode and serve.
	ctx, stop := sigctx.Notify(context.Background())
	defer stop()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 1
	}
	defer stopProfiles()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.CacheDir = *cacheDir
	src, err := bench.Parse(*suiteSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 2
	}
	cfg.Source = src
	lab := experiments.NewLab(cfg)
	params := experiments.Params{Cores: *cores}

	switch args[0] {
	case "list":
		listExperiments(os.Stdout)
		return 0
	case "benches":
		listBenches(os.Stdout, src)
		return 0
	case "version":
		fmt.Println(buildinfo.Read())
		return 0
	case "serve":
		return serveCmd(ctx, cfg, args[1:])
	case "top":
		return topCmd(ctx, args[1:])
	case "sim":
		if err := simulate(ctx, lab, args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return sigctx.ExitCode(err)
		}
		return 0
	}

	// Validate every requested name before any simulation starts, so a
	// typo late in the argument list cannot waste a warmed campaign.
	for _, name := range args {
		if name == "all" {
			continue
		}
		if _, ok := experiments.Lookup(name); !ok {
			msg := fmt.Sprintf("mcbench: unknown experiment %q", name)
			if s := suggest(name); s != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", s)
			}
			fmt.Fprintln(os.Stderr, msg)
			fmt.Fprintln(os.Stderr, "run `mcbench list` for the full catalogue")
			return 2
		}
	}

	// Precompute every table the selected experiments declare, with
	// campaign-level parallelism on top of the per-sweep parallelism, so
	// a full reproduction saturates the host's cores. The experiments
	// then read memoized (or -cache persisted) tables.
	if plan := lab.CampaignPlan(args, params); len(plan) > 0 {
		start := time.Now()
		n, err := lab.Warm(ctx, plan, 0)
		if err != nil {
			return campaignErr(err, *cacheDir)
		}
		fmt.Printf("(warmed %d tables/products in %v)\n\n", n, time.Since(start).Round(time.Millisecond))
	}

	for _, name := range args {
		names := []string{name}
		if name == "all" {
			names = experiments.AllExperiments()
		}
		for _, n := range names {
			if err := run(ctx, lab, n, params, *plotFlag); err != nil {
				return campaignErr(err, *cacheDir)
			}
		}
	}
	if *timing {
		printTiming(os.Stdout)
	}
	return 0
}

// campaignErr reports a campaign failure under the shared exit-code
// convention: a cancelled context (the signal path) is the conventional
// 130, everything else a plain failure.
func campaignErr(err error, cacheDir string) int {
	code := sigctx.ExitCode(err)
	if code == sigctx.ExitInterrupted {
		fmt.Fprintln(os.Stderr, "mcbench: interrupted")
		if cacheDir != "" {
			fmt.Fprintln(os.Stderr, "mcbench: completed sweeps are persisted in", cacheDir, "— rerun to resume")
		}
		return code
	}
	fmt.Fprintln(os.Stderr, "mcbench:", err)
	return code
}

// serveCmd runs the experiment service until the shared signal context
// fires, then drains: a SIGTERM'd server exits 0 with every completed
// sweep persisted (when -cache is set), and a restart serves them from
// disk. With -join the server runs as a fleet worker of the coordinator
// at that address; without it the server is itself a coordinator, and
// campaigns submitted to it shard across whatever workers have joined.
func serveCmd(ctx context.Context, cfg experiments.Config, args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 2, "concurrently executing jobs")
	queue := fs.Int("queue", 16, "bounded backlog of accepted jobs")
	keep := fs.Int("keep", 256, "settled jobs retained for querying (oldest evicted beyond)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock bound; a job exceeding it fails (0 = unbounded)")
	join := fs.String("join", "", "coordinator address to join as a fleet worker (empty: run as coordinator)")
	advertise := fs.String("advertise", "", "address fleet peers reach this server at (default: the bound listen address)")
	heartbeat := fs.Duration("heartbeat", 0, "fleet worker heartbeat interval (0 = coordinator default, 5s)")
	stealAfter := fs.Duration("steal-after", 0, "re-issue a dispatched shard after this long on one worker (0 = only on lease lapse)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU/heap profiles, goroutine dumps)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcbench [-quick] [-suite SPEC] [-cache DIR] serve [-addr HOST:PORT] [-workers N] [-queue N] [-job-timeout D] [-join HOST:PORT] [-advertise HOST:PORT]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mcbench serve: unexpected arguments %v\n", fs.Args())
		return 2
	}
	role := "coordinator"
	if *join != "" {
		role = "worker of " + *join
	}
	onReady := func(bound string) {
		fmt.Printf("mcbench serve: %s\n", buildinfo.Read())
		fmt.Printf("mcbench serve: listening on http://%s (source %s, %d workers, fleet %s)\n",
			bound, cfg.Source.Name(), *workers, role)
	}
	err := mcbench.Serve(ctx, cfg, mcbench.ServeOptions{
		Addr: *addr, Workers: *workers, QueueDepth: *queue,
		KeepJobs: *keep, JobTimeout: *jobTimeout, OnReady: onReady,
		Join: *join, Advertise: *advertise,
		FleetHeartbeat: *heartbeat, StealAfter: *stealAfter,
		Pprof: *pprofOn,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench serve:", err)
		return sigctx.ExitCode(err)
	}
	fmt.Println("mcbench serve: drained cleanly")
	return sigctx.ExitOK
}

// startProfiles starts CPU profiling and arranges a heap snapshot at
// stop, so future performance work starts from a profile instead of
// guesses: mcbench -quick -cpuprofile cpu.out all && go tool pprof cpu.out
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mcbench: memprofile:", err)
			}
		}
	}, nil
}

// simUsage is the sim subcommand synopsis.
const simUsage = "usage: mcbench sim [-warmup N] [-quota N] [-sample U:D:W[:F]] <policy> <bench,bench,...>"

// parseSampleSpec parses the -sample flag: colon-separated
// unit:window:warmup µops with an optional fourth bounded-warming field.
// A zero unit is refused (an exact run omits the flag); multicore.Check
// checks the rest of the parsed schedule.
func parseSampleSpec(s string) (multicore.SamplingSpec, error) {
	var spec multicore.SamplingSpec
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return spec, fmt.Errorf("-sample wants unit:window:warmup[:warm], got %q", s)
	}
	dst := []*uint64{&spec.Unit, &spec.Window, &spec.Warmup, &spec.Warm}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("-sample field %d: %v", i+1, err)
		}
		*dst[i] = v
	}
	if !spec.Enabled() {
		return spec, fmt.Errorf("-sample: empty sampling spec (omit the flag for an exact run)")
	}
	return spec, nil
}

// simulate runs one named workload under one policy with both simulators
// and prints the per-thread IPCs: mcbench sim DRRIP mcf,povray
// Benchmark names resolve through the -suite source. With -warmup each
// thread commits N µops before the measurement window opens. With
// -sample the detailed simulator runs under systematic sampling and the
// IPCs become estimates with a 95% confidence column. Both passes run
// through the lab's ad-hoc executor rather than mcbench.Simulate, whose
// errors carry a package prefix the CLI would print twice.
func simulate(ctx context.Context, lab *experiments.Lab, args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	warmup := fs.Uint64("warmup", 0, "µops committed per thread before measurement (warms caches and predictors)")
	quota := fs.Uint64("quota", 0, "µops measured per thread (default: one trace length)")
	sample := fs.String("sample", "", "sampled detailed run: unit:window:warmup[:warm] µops (prints IPC ± 95% CI)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), simUsage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) != 2 {
		return fmt.Errorf("%s", simUsage)
	}
	policy := cache.PolicyName(args[0])
	spec := multicore.Spec{Policy: policy, Quota: *quota, Warmup: *warmup}
	if *sample != "" {
		smp, err := parseSampleSpec(*sample)
		if err != nil {
			return err
		}
		spec.Sampling = smp
	}
	workload := [][]string{strings.Split(args[1], ",")}
	res, _, _, err := lab.Simulate(ctx, spec, workload, 0)
	switch {
	case errors.Is(err, multicore.ErrUnknownBenchmark):
		return fmt.Errorf("%w (run `mcbench benches`)", err)
	case errors.Is(err, multicore.ErrWarmupOverQuota):
		return fmt.Errorf("%w (use -quota to lengthen the measurement window)", err)
	case err != nil:
		return err
	}
	det := res[0]
	w := det.Workload

	if spec.Sampling.Enabled() {
		fmt.Printf("workload %s under %s (sampled %s, %d windows of %d µops)\n",
			w, policy, spec.Sampling, det.Windows, spec.Sampling.Window)
		fmt.Printf("%-12s  %10s  %10s  %8s\n", "thread", "IPC(est)", "±95% CI", "cv")
		for i, n := range w {
			fmt.Printf("%-12s  %10.4f  %10.4f  %8.3f\n", n, det.IPC[i], det.CIHalf[i], det.CV[i])
		}
		return nil
	}

	spec.Engine = multicore.BADCO
	if res, _, _, err = lab.Simulate(ctx, spec, workload, 0); err != nil {
		return err
	}
	app := res[0]
	window := fmt.Sprintf("%d µops/thread", det.Instructions)
	if *warmup > 0 {
		window += fmt.Sprintf(" after %d warmup", *warmup)
	}
	fmt.Printf("workload %s under %s (%s)\n", w, policy, window)
	fmt.Printf("%-12s  %10s  %10s\n", "thread", "detailed", "BADCO")
	for i, n := range w {
		fmt.Printf("%-12s  %10.4f  %10.4f\n", n, det.IPC[i], app.IPC[i])
	}
	return nil
}

// listBenches prints the active source's benchmark catalogue.
func listBenches(w io.Writer, src bench.Source) {
	names := src.Names()
	fmt.Fprintf(w, "benchmarks of source %s (%d):\n", src.Name(), len(names))
	type paramsSource interface {
		Params(string) (trace.Params, bool)
	}
	ps, hasParams := src.(paramsSource)
	for i, n := range names {
		line := fmt.Sprintf("  %3d  %-12s", i, n)
		if hasParams {
			if p, ok := ps.Params(n); ok {
				pats := ""
				for j, spec := range p.Patterns {
					if j > 0 {
						pats += "+"
					}
					pats += spec.Kind.String()
				}
				line += fmt.Sprintf("  load %.2f  store %.2f  branch %.2f  fp %.2f  %s",
					p.LoadFrac, p.StoreFrac, p.BranchFrac, p.FPFrac, pats)
			}
		}
		fmt.Fprintln(w, line)
	}
}

// commands are the CLI's commands beside the experiments, in catalogue
// order. `mcbench list` and the usage text print them, and a mistyped
// name is matched against them.
var commands = []struct{ name, synopsis string }{
	{"sim", "simulate one workload: mcbench sim [-warmup N] [-sample U:D:W] <policy> <bench,bench,...>"},
	{"benches", "list the active -suite source's benchmarks"},
	{"serve", "run the experiment service: mcbench serve [-addr HOST:PORT]"},
	{"top", "live telemetry view of a server: mcbench top [-addr URL] [-interval D]"},
	{"version", "print the build identity"},
	{"list", "this catalogue"},
}

// suggest returns the experiment or command name closest to a mistyped
// one, or "" when none is close.
func suggest(name string) string {
	extra := []string{"all"}
	for _, c := range commands {
		extra = append(extra, c.name)
	}
	return experiments.Suggest(name, extra...)
}

// listExperiments prints the registry catalogue, grouped.
func listExperiments(w io.Writer) {
	fmt.Fprintln(w, "experiments (paper):")
	printGroup(w, experiments.GroupPaper)
	fmt.Fprintln(w, "\nextensions (beyond the paper):")
	printGroup(w, experiments.GroupExtension)
	fmt.Fprintln(w, "\ncommands:")
	printEntry(w, "all", "every paper experiment above, in order")
	printCommands(w)
}

func printGroup(w io.Writer, g experiments.Group) {
	for _, e := range experiments.ByGroup(g) {
		printEntry(w, e.Name, e.Synopsis)
	}
}

func printCommands(w io.Writer) {
	for _, c := range commands {
		printEntry(w, c.name, c.synopsis)
	}
}

// printEntry is the one place the catalogue's column layout lives, so
// `mcbench list` and the usage text cannot drift apart. The separating
// space keeps a name of 18 or more characters off its synopsis.
func printEntry(w io.Writer, name, synopsis string) {
	fmt.Fprintf(w, "  %-18s %s\n", name, synopsis)
}

// usage is generated from the registry and the command table, so a
// newly registered experiment shows up without touching the CLI.
func usage() {
	fmt.Fprint(os.Stderr, `usage: mcbench [-quick] [-cores N] [-suite SPEC] <experiment>...

experiments:
`)
	printGroup(os.Stderr, experiments.GroupPaper)
	printEntry(os.Stderr, "all", "everything above")
	fmt.Fprint(os.Stderr, "\nextensions (beyond the paper):\n")
	printGroup(os.Stderr, experiments.GroupExtension)
	fmt.Fprint(os.Stderr, "\ncommands:\n")
	printCommands(os.Stderr)
	fmt.Fprint(os.Stderr, `
flags: -suite selects the benchmark source (suite | scaled:B[:seed] | dir:PATH)
       -plot renders figures as text charts in addition to tables
       -timing prints the per-phase simulation timing breakdown after the run
       -cpuprofile/-memprofile write pprof profiles for performance work
`)
}

// run executes one registered experiment and prints its table (and
// chart, with -plot).
func run(ctx context.Context, lab *experiments.Lab, name string, p experiments.Params, plotFlag bool) error {
	e, ok := experiments.Lookup(name)
	if !ok {
		// Unreachable after upfront validation; kept for safety.
		return fmt.Errorf("unknown experiment %q", name)
	}
	start := time.Now()
	t, err := e.Run(ctx, lab, p)
	if err != nil {
		return err
	}
	t.Fprint(os.Stdout)
	if plotFlag && e.Chart != nil {
		chart, err := e.Chart(ctx, lab, p)
		if err != nil {
			return err
		}
		if chart != "" {
			fmt.Println(chart)
		}
	}
	fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}
