package main

// metricDef describes one reported metric, in the schema of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// defaultSeconds is the length of one measured phase; BENCHMARK.json's
// run_seconds must agree (a test checks it).
const defaultSeconds = 20

// setupReps is how many times each run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// endToEnd are the metrics a user of mcbench sees, printed by every
// untraced run on every workload. The bounds are wide because host speed
// on a small shared machine drifts by tens of percent over a minute; see
// baseline.json for the spreads measured.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_muops_per_s", "Muops/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// layers maps each per-layer CPU-share bucket to the Go packages it
// covers (see layerOf for the pattern syntax). Samples in no listed
// package, such as the benchmark's own code, land in "other".
var layers = []struct {
	name string
	pkgs []string
}{
	{"trace", []string{"mcbench/internal/trace", "mcbench/internal/bench"}},
	{"cpu", []string{"mcbench/internal/cpu"}},
	{"bpred", []string{"mcbench/internal/bpred"}},
	{"cache", []string{"mcbench/internal/cache"}},
	{"uncore", []string{"mcbench/internal/uncore"}},
	{"mem", []string{"mcbench/internal/mem"}},
	{"badco", []string{"mcbench/internal/badco"}},
	{"multicore", []string{"mcbench/internal/multicore", "mcbench/internal/cophase"}},
	{"experiments", []string{"mcbench/internal/experiments", "mcbench/internal/plot"}},
	{"analysis", []string{"mcbench/internal/sampling", "mcbench/internal/stats", "mcbench/internal/metrics",
		"mcbench/internal/cluster", "mcbench/internal/workload", "mcbench/internal/profile"}},
	{"results", []string{"mcbench/internal/results", "mcbench/internal/faultinject"}},
	{"serve", []string{"mcbench/internal/serve", "mcbench/internal/fleet", "mcbench/internal/buildinfo",
		"mcbench/internal/sigctx"}},
	{"api", []string{"mcbench"}},
	{"telemetry", []string{"mcbench/internal/telemetry"}},
	{"net", []string{"net/...", "encoding/json", "crypto/...", "mime/...", "vendor/golang.org/x/net/...", "internal/poll"}},
	{"runtime", []string{"runtime/...", "internal/runtime/...", "internal/bytealg"}},
	{"other", nil},
}

// perLayer are the metrics a traced run prints on every workload: the CPU
// share of each layer, replay-probe costs of the simulator layers, and
// process-level ratios. See README.md for which end-to-end metric each
// should move.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{Name: l.name + ".cpu_share", Unit: "share", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "trace.gen_ns_per_uop", Unit: "ns", Better: "lower"},
		{Name: "badco.build_ms", Unit: "ms", Better: "lower"},
		{Name: "badco.ns_per_uop", Unit: "ns", Better: "lower"},
		{Name: "cpu.ns_per_uop", Unit: "ns", Better: "lower"},
		{Name: "cpu.ff_ns_per_uop", Unit: "ns", Better: "lower"},
		{Name: "bpred.ns_per_predict", Unit: "ns", Better: "lower"},
		{Name: "uncore.ns_per_access", Unit: "ns", Better: "lower"},
		{Name: "uncore.accesses_per_kuop", Unit: "1/kuop", Better: "lower"},
		{Name: "cache.llc_ns_per_access.LRU", Unit: "ns", Better: "lower"},
		{Name: "cache.llc_ns_per_access.DRRIP", Unit: "ns", Better: "lower"},
		{Name: "cache.prefetch_ns_per_observe", Unit: "ns", Better: "lower"},
		{Name: "multicore.parallel_eff", Unit: "share", Better: "higher"},
		{Name: "runtime.gc_cpu_frac", Unit: "share", Better: "lower"},
		{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "client.ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "client.op_latency_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "client.op_latency_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.queue_wait_share", Unit: "share", Better: "lower"},
		{Name: "serve.http_share", Unit: "share", Better: "lower"},
		{Name: "client.requests_per_op", Unit: "1/op", Better: "lower"},
		{Name: "client.retries", Unit: "count", Better: "lower"},
	}...)
}()

// metricByName finds a metric in either catalogue.
func metricByName(name string) (metricDef, bool) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
