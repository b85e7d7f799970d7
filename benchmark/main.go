// Command benchmark measures mcbench end to end on four workloads and,
// in a traced run, layer by layer. Run it from the repository root:
//
//	bash benchmark/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	bash benchmark/run.sh -compare PARENT.log CHANGE.log
//	bash benchmark/run.sh -pin
//
// Each workload runs in a fresh child process, so that its peak RSS and
// every memoized product belong to it alone. The child sets the workload
// up setupReps times, measures for S seconds and checks every output; the
// parent prints a "# workload=…" line and then the result as one JSON
// object. See README.md for the metrics and the workloads.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"mcbench"
)

// setupFunc sets a workload up once and returns the session to measure.
type setupFunc func(ctx context.Context) (session, error)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// prepare runs once per child, untimed, and returns the timed set-up.
	prepare func(ctx context.Context, seed int64, dir string, sz sizes) (setupFunc, error)
}

// simPrepare adapts a simulation set-up, which needs no preparation.
func simPrepare(setup func(int64, sizes) setupFunc) func(context.Context, int64, string, sizes) (setupFunc, error) {
	return func(_ context.Context, seed int64, _ string, sz sizes) (setupFunc, error) {
		return setup(seed, sz), nil
	}
}

// workloads are the benchmark's inputs; BENCHMARK.json says why each was
// chosen, and a test keeps the two lists in step.
var workloads = []workload{
	{"badco-population", simPrepare(setupBadco)},
	{"detailed-sample", simPrepare(setupDetailed)},
	{"sampled-long", simPrepare(setupSampled)},
	{"serve-mixed", prepareServe},
}

//go:embed testdata/digests.json
var digestsJSON []byte

// pinned maps workload → seed → digest of one whole cycle of outputs.
type pinned map[string]map[string]string

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	// The benchmark's invocation passes BENCHMARK.json's run_seconds here,
	// the same on every commit; the default is that value too.
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured phase, BENCHMARK.json's run_seconds")
	traced := fs.Int("trace", 0, "1 for a traced run printing the per-layer metrics")
	child := fs.Bool("child", false, "run one workload in this process (used by the parent)")
	compare := fs.Bool("compare", false, "compare two logs of runs: -compare PARENT CHANGE")
	pin := fs.Bool("pin", false, "recompute the pinned digests for seeds 1 and 2 into "+digestsPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// An interrupted parent cancels its child, which CommandContext then
	// kills and waits for.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two log files")
			return 2
		}
		err = compareLogs(fs.Arg(0), fs.Arg(1), stdout)
	case *pin:
		err = pinDigests(ctx, stderr)
	case *traced != 0 && *traced != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be positive")
	case *child:
		var w workload
		if w, err = lookup(*name); err == nil {
			err = runChild(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout, stderr)
		}
	default:
		err = runParent(ctx, *name, *seed, *traced, args, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// childTimeout bounds one child so that a hung run still exits in time.
const childTimeout = 170 * time.Second

// runParent runs each selected workload in a child process and prints
// its result, adding the child's peak RSS to untraced results.
func runParent(ctx context.Context, name string, seed int64, traced int, args []string, stdout, stderr io.Writer) error {
	selected := workloads
	if name != "all" {
		w, err := lookup(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range selected {
		cctx, cancel := context.WithTimeout(ctx, childTimeout)
		cmd := exec.CommandContext(cctx, exe, append(append([]string{"-child"}, args...), "-workload", w.name)...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("%s: reading the child's result: %w", w.name, err)
		}
		if _, untraced := res.Metrics["setup_s"]; untraced {
			ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
			res.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# workload=%s seed=%d trace=%d\n%s\n", w.name, seed, traced, line)
	}
	return nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64) {
	d, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	r.Metrics[name] = metricValue{v, d.Unit}
}

// runChild sets the workload up, measures it and prints its result.
func runChild(ctx context.Context, w workload, seed int64, d time.Duration, traced bool, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runSpan, runStart := tr.newID(), time.Now()
	setup, err := w.prepare(ctx, seed, dir, fullSize)
	if err != nil {
		return fmt.Errorf("preparing %s: %w", w.name, err)
	}
	var (
		s      session
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
			s = nil
		}
		runtime.GC() // drop the previous repetition's state before timing the next
		t0 := time.Now()
		if s, err = setup(ctx); err != nil {
			return fmt.Errorf("setting %s up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.add("setup", runSpan, t0, time.Now())
	}

	r := &runner{s: s, chk: newChecker(s.size()), log: stderr}
	var res result
	if !traced {
		ph := r.measure(ctx, d, 0, nil, 0)
		res.Attempted, res.Failed = ph.ops, ph.failed
		res.set("setup_s", median(setups))
		res.set("sim_muops_per_s", ph.muops/ph.wall.Seconds())
		fmt.Fprintf(stderr, "%s: %d ops in %.2fs, latency p50 %.1f ms p90 %.1f ms; setups %.3v s\n", w.name, ph.ops,
			ph.wall.Seconds(), percentile(ph.latencies, 0.5), percentile(ph.latencies, 0.9), setups)
	} else {
		if err := tracedRun(ctx, w, r, d, tr, runSpan, &res, stderr); err != nil {
			return err
		}
	}
	if err := s.close(); err != nil {
		return err
	}
	if err := verify(w.name, seed, r.chk, &res, stderr); err != nil {
		return err
	}
	if traced {
		tr.record(runSpan, 0, "run "+w.name, runStart, time.Now())
		if err := tr.write(filepath.Join(traceDir, w.name+".spans.json")); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// Directories a run writes under, relative to the repository root. Both
// are listed in .gitignore.
const (
	buildDir = ".bench_build"
	traceDir = ".bench_build/trace"
)

// tracedRun measures the workload for half the run length untraced, then
// from the same first operation for half the run length under a CPU
// profile and spans, so that the two halves run the same operations and
// their rates give the tracing overhead. It then runs the replay probes
// and fills res with the per-layer metrics.
func tracedRun(ctx context.Context, w workload, r *runner, d time.Duration, tr *tracer, parent uint64, res *result, stderr io.Writer) error {
	base := r.measure(ctx, d/2, 0, nil, 0)
	r.next.Store(0)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(traceDir, w.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	ss, serving := r.s.(*serveSession)
	var clientBefore mcbench.ClientStats
	if serving {
		clientBefore = ss.client.Stats()
	}
	before := sampleProcess()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	ph := r.measure(ctx, d/2, 0, tr, parent)
	pprof.StopCPUProfile()
	after := sampleProcess()
	if err := f.Close(); err != nil {
		return err
	}
	res.Attempted, res.Failed = base.ops+ph.ops, base.failed+ph.failed

	shares, err := profileShares(ctx, profPath)
	if err != nil {
		return err
	}
	for _, l := range layers {
		res.set(l.name+".cpu_share", shares[l.name])
	}
	cpuSecs := after.cpu - before.cpu
	res.set("multicore.parallel_eff", cpuSecs/(ph.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	res.set("runtime.gc_cpu_frac", (after.gc-before.gc)/(after.total-before.total))
	res.set("trace_overhead_pct", (base.opsPerSec()/ph.opsPerSec()-1)*100)
	res.set("client.ops_per_s", ph.opsPerSec())
	res.set("client.op_latency_p50_ms", percentile(ph.latencies, 0.50))
	res.set("client.op_latency_p90_ms", percentile(ph.latencies, 0.90))
	var latency float64
	for _, l := range ph.latencies {
		latency += l
	}
	latency *= float64(time.Millisecond)
	res.set("serve.queue_wait_share", float64(ph.queue)/latency)
	res.set("serve.http_share", float64(ph.http)/latency)
	var requests, retries float64
	if serving {
		// Each traced job makes one extra status request for its spans;
		// it is not counted.
		st := ss.client.Stats()
		requests = float64(st.Requests-clientBefore.Requests-int64(ph.ops)) / float64(ph.ops)
		retries = float64(st.Retries - clientBefore.Retries)
		for _, m := range jobMix {
			fmt.Fprintf(stderr, "%s: %s jobs: service p50 %.1f ms over %d\n", w.name, m.kind,
				percentile(ph.service[m.kind], 0.5), len(ph.service[m.kind]))
		}
	}
	res.set("client.requests_per_op", requests)
	res.set("client.retries", retries)

	t0 := time.Now()
	probes, err := runProbes(ctx, fullSize.traceLen)
	if err != nil {
		return err
	}
	tr.add("probes", parent, t0, time.Now())
	for k, v := range probes.metrics {
		res.set(k, v)
	}
	res.Attempted += probes.replays
	res.Failed += probes.mismatches
	fmt.Fprintf(stderr, "%s: traced %.1f ops/s, untraced %.1f ops/s; profile %s\n", w.name, ph.opsPerSec(), base.opsPerSec(), profPath)
	return nil
}

// processSample is the process's CPU time from getrusage and the Go
// runtime's estimate of its GC and total CPU time at one instant.
type processSample struct{ cpu, gc, total float64 }

func sampleProcess() processSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(ms)
	return processSample{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		gc:    ms[0].Value.Float64(),
		total: ms[1].Value.Float64(),
	}
}

// verify compares a completed cycle's digest with the pinned one for the
// seed; a mismatch counts as one failed check.
func verify(name string, seed int64, chk *checker, res *result, stderr io.Writer) error {
	var pins pinned
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return fmt.Errorf("reading %s: %w", digestsPath, err)
	}
	got, complete := chk.cycleDigest()
	want, ok := pins[name][strconv.FormatInt(seed, 10)]
	switch {
	case !complete:
		fmt.Fprintf(stderr, "%s: digest unverified: the run did not complete one cycle\n", name)
	case !ok:
		fmt.Fprintf(stderr, "%s: digest unverified: no pinned digest for seed %d (repeats and sanity checks only)\n", name, seed)
	case fmt.Sprintf("%016x", got) != want:
		fmt.Fprintf(stderr, "%s: digest %016x differs from the pinned %s\n", name, got, want)
		res.Attempted++
		res.Failed++
	default:
		fmt.Fprintf(stderr, "%s: digest %s verified\n", name, want)
		res.Attempted++
	}
	return nil
}

const digestsPath = "benchmark/testdata/digests.json"

// pinDigests runs one full cycle of every workload for seeds 1 and 2 and
// writes the cycle digests to digestsPath.
func pinDigests(ctx context.Context, stderr io.Writer) error {
	pins := pinned{}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		pins[w.name] = map[string]string{}
		for _, seed := range []int64{1, 2} {
			dir, err := os.MkdirTemp(buildDir, "pin-")
			if err != nil {
				return err
			}
			got, err := func() (uint64, error) {
				defer os.RemoveAll(dir)
				setup, err := w.prepare(ctx, seed, dir, fullSize)
				if err != nil {
					return 0, err
				}
				s, err := setup(ctx)
				if err != nil {
					return 0, err
				}
				r := &runner{s: s, chk: newChecker(s.size()), log: stderr}
				ph := r.measure(ctx, 0, s.size(), nil, 0)
				err = s.close()
				if ph.failed > 0 {
					err = errors.Join(err, fmt.Errorf("%d operations failed", ph.failed))
				}
				d, _ := r.chk.cycleDigest()
				return d, err
			}()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			pins[w.name][strconv.FormatInt(seed, 10)] = fmt.Sprintf("%016x", got)
			fmt.Fprintf(stderr, "%s seed %d: %016x\n", w.name, seed, got)
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(data, '\n'), 0o644)
}
