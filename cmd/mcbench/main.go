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
// The command is a client of the public mcbench package: a campaign
// runs through mcbench.Lab (Warm, then Run and Chart per experiment),
// the same dispatcher a library caller and the server's experiment jobs
// use, so one set of arguments builds the same products on every entry
// point. `mcbench list` enumerates the experiments. -quick runs a
// reduced campaign (smaller traces, subsampled populations, fewer
// Monte-Carlo trials) that finishes in a few minutes; the default
// campaign matches the paper's scale and may take much longer.
//
// -cores pins the core count of every experiment: the single-count ones
// (fig4/fig5/fig6/overhead and most extensions) and the core-count
// sweeps of fig2, fig3 and fig7. 0, the default, keeps each experiment's
// paper default (4 cores; 2, 4 and 8 for the sweeps).
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
	"mcbench/internal/buildinfo"   // version and the serve banner print the build identity
	"mcbench/internal/experiments" // Suggest and CheckCores: a mistyped name or a bad -cores exits 2 before any simulation
	"mcbench/internal/multicore"   // -sample parses into a SamplingSpec (sim prints its canonical form); sim's hints match its sentinel errors
	"mcbench/internal/sigctx"      // the signal context and exit codes batch runs and serve share
)

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code, so profile writers installed by
// startProfiles always run (os.Exit would skip deferred stops).
func realMain() int {
	quick := flag.Bool("quick", false, "reduced campaign (fast, lower resolution)")
	suiteSpec := flag.String("suite", "suite", "benchmark source: suite | scaled:B[:seed] | dir:PATH")
	cores := flag.Int("cores", 0, "core count of every experiment, fig2/fig3/fig7's sweeps included (0 = each experiment's paper default)")
	cacheDir := flag.String("cache", "", "directory for persisting population sweeps across runs")
	plotFlag := flag.Bool("plot", false, "render figures as text charts in addition to tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit (pprof)")
	timing := flag.Bool("timing", false, "print the per-phase simulation timing breakdown after the campaign")
	flag.Usage = usage
	flag.Parse()

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

	cfg := mcbench.DefaultConfig()
	if *quick {
		cfg = mcbench.QuickConfig()
	}
	cfg.CacheDir = *cacheDir
	src, err := mcbench.Suite(*suiteSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 2
	}
	cfg.Source = src
	lab := mcbench.NewLab(cfg)

	switch args[0] {
	case "list":
		listExperiments(os.Stdout)
		return 0
	case "benches":
		listBenches(os.Stdout, lab)
		return 0
	case "version":
		fmt.Println(buildinfo.Read())
		return 0
	case "serve":
		return serveCmd(ctx, cfg, args[1:])
	case "top":
		return topCmd(ctx, args[1:])
	case "sim":
		if err := simulate(ctx, cfg, args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return sigctx.ExitCode(err)
		}
		return 0
	}

	// Validate every requested name before any simulation starts, so a
	// typo late in the argument list cannot waste a warmed campaign.
	known := map[string]bool{"all": true}
	for _, e := range mcbench.Experiments() {
		known[e.Name] = true
	}
	for _, name := range args {
		if !known[name] {
			msg := fmt.Sprintf("mcbench: unknown experiment %q", name)
			if s := suggest(name); s != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", s)
			}
			fmt.Fprintln(os.Stderr, msg)
			fmt.Fprintln(os.Stderr, "run `mcbench list` for the full catalogue")
			return 2
		}
	}
	if err := campaign(ctx, lab, args, *cores, *plotFlag); err != nil {
		return campaignErr(err, *cacheDir)
	}
	if *timing {
		printTiming(os.Stdout)
	}
	return 0
}

// campaign precomputes every product the named experiments read, with
// campaign-level parallelism on top of the per-sweep parallelism so a
// full reproduction saturates the host's cores, then runs each
// experiment on the memoized (or -cache persisted) products and prints
// its table, and its chart with -plot.
func campaign(ctx context.Context, lab *mcbench.Lab, names []string, cores int, plot bool) error {
	start := time.Now()
	n, err := lab.Warm(ctx, names, cores)
	if err != nil {
		return err
	}
	if n > 0 {
		fmt.Printf("(warmed %d tables/products in %v)\n\n", n, time.Since(start).Round(time.Millisecond))
	}
	for _, arg := range names {
		group := []string{arg}
		if arg == "all" {
			group = paperExperiments()
		}
		for _, name := range group {
			start := time.Now()
			t, err := lab.Run(ctx, name, cores)
			if err != nil {
				return err
			}
			t.Fprint(os.Stdout)
			if plot {
				chart, ok, err := lab.Chart(ctx, name, cores)
				if err != nil {
					return err
				}
				if ok && chart != "" {
					fmt.Println(chart)
				}
			}
			fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// paperExperiments lists the experiments "all" runs: the paper's, in
// run order.
func paperExperiments() []string {
	var names []string
	for _, e := range mcbench.Experiments() {
		if e.Group == "paper" {
			names = append(names, e.Name)
		}
	}
	return names
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
func serveCmd(ctx context.Context, cfg mcbench.Config, args []string) int {
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
// through mcbench.Simulate at the campaign's trace length, which builds
// the BADCO models of the workload's benchmarks only. Every error it
// returns carries the "mcbench:" prefix, as mcbench.Simulate's do.
func simulate(ctx context.Context, cfg mcbench.Config, args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	warmup := fs.Uint64("warmup", 0, "µops committed per thread before measurement (warms caches and predictors)")
	quota := fs.Uint64("quota", 0, "µops measured per thread (default: one trace length)")
	sample := fs.String("sample", "", "sampled detailed run: unit:window:warmup[:warm] µops (prints IPC ± 95% CI)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), simUsage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("mcbench: %w", err)
	}
	args = fs.Args()
	if len(args) != 2 {
		return fmt.Errorf("mcbench: %s", simUsage)
	}
	policy := mcbench.Policy(args[0])
	opts := []mcbench.Option{
		mcbench.WithSuite(cfg.Source), mcbench.WithTraceLen(cfg.TraceLen),
		mcbench.WithPolicy(policy), mcbench.WithQuota(*quota), mcbench.WithWarmup(*warmup),
	}
	var smp multicore.SamplingSpec
	if *sample != "" {
		var err error
		if smp, err = parseSampleSpec(*sample); err != nil {
			return fmt.Errorf("mcbench: %w", err)
		}
		opts = append(opts, mcbench.WithSampling(smp.Unit, smp.Window, smp.Warmup), mcbench.WithSamplingWarm(smp.Warm))
	}
	workload := strings.Split(args[1], ",")
	det, err := mcbench.Simulate(ctx, workload, opts...)
	switch {
	case errors.Is(err, multicore.ErrUnknownBenchmark):
		return fmt.Errorf("%w (run `mcbench benches`)", err)
	case errors.Is(err, multicore.ErrWarmupOverQuota):
		return fmt.Errorf("%w (use -quota to lengthen the measurement window)", err)
	case err != nil:
		return err
	}
	w := det.Workload
	name := strings.Join(w, "+")

	if smp.Enabled() {
		fmt.Printf("workload %s under %s (sampled %s, %d windows of %d µops)\n",
			name, policy, smp, det.Windows, smp.Window)
		fmt.Printf("%-12s  %10s  %10s  %8s\n", "thread", "IPC(est)", "±95% CI", "cv")
		for i, n := range w {
			fmt.Printf("%-12s  %10.4f  %10.4f  %8.3f\n", n, det.IPC[i], det.CIHalf[i], det.CV[i])
		}
		return nil
	}

	app, err := mcbench.Simulate(ctx, workload, append(opts, mcbench.WithSimulator(mcbench.BADCO))...)
	if err != nil {
		return err
	}
	window := fmt.Sprintf("%d µops/thread", det.Instructions)
	if *warmup > 0 {
		window += fmt.Sprintf(" after %d warmup", *warmup)
	}
	fmt.Printf("workload %s under %s (%s)\n", name, policy, window)
	fmt.Printf("%-12s  %10s  %10s\n", "thread", "detailed", "BADCO")
	for i, n := range w {
		fmt.Printf("%-12s  %10.4f  %10.4f\n", n, det.IPC[i], app.IPC[i])
	}
	return nil
}

// listBenches prints the benchmark catalogue of the lab's source.
func listBenches(w io.Writer, lab *mcbench.Lab) {
	benches := lab.Benches()
	fmt.Fprintf(w, "benchmarks of source %s (%d):\n", lab.Suite().Name(), len(benches))
	for i, b := range benches {
		line := fmt.Sprintf("  %3d  %-12s", i, b.Name)
		if p := b.Params; p != nil {
			line += fmt.Sprintf("  load %.2f  store %.2f  branch %.2f  fp %.2f  %s",
				p.LoadFrac, p.StoreFrac, p.BranchFrac, p.FPFrac, strings.Join(p.Patterns, "+"))
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

// listExperiments prints the catalogue, grouped.
func listExperiments(w io.Writer) {
	exps := mcbench.Experiments()
	fmt.Fprintln(w, "experiments (paper):")
	printGroup(w, exps, "paper")
	fmt.Fprintln(w, "\nextensions (beyond the paper):")
	printGroup(w, exps, "extension")
	fmt.Fprintln(w, "\ncommands:")
	printEntry(w, "all", "every paper experiment above, in order")
	printCommands(w)
}

func printGroup(w io.Writer, exps []mcbench.ExperimentInfo, group string) {
	for _, e := range exps {
		if e.Group == group {
			printEntry(w, e.Name, e.Synopsis)
		}
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

// usage is generated from the catalogue and the command table, so a
// newly registered experiment shows up without touching the CLI.
func usage() {
	exps := mcbench.Experiments()
	fmt.Fprint(os.Stderr, `usage: mcbench [-quick] [-cores N] [-suite SPEC] <experiment>...

experiments:
`)
	printGroup(os.Stderr, exps, "paper")
	printEntry(os.Stderr, "all", "everything above")
	fmt.Fprint(os.Stderr, "\nextensions (beyond the paper):\n")
	printGroup(os.Stderr, exps, "extension")
	fmt.Fprint(os.Stderr, "\ncommands:\n")
	printCommands(os.Stderr)
	fmt.Fprint(os.Stderr, `
flags: -suite selects the benchmark source (suite | scaled:B[:seed] | dir:PATH)
       -plot renders figures as text charts in addition to tables
       -timing prints the per-phase simulation timing breakdown after the run
       -cpuprofile/-memprofile write pprof profiles for performance work
`)
}
