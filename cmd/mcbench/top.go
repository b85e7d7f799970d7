package main

// mcbench top — a live terminal view of a running server's telemetry,
// rendered from GET /metrics?format=json (and /fleet/metrics when the
// server is a fleet coordinator). The same data a Prometheus scrape
// sees, without standing up a scrape stack: job traffic, sweep counts,
// store activity, per-endpoint HTTP latency, per-phase simulation time.
//
// `-timing` on a batch run prints the same per-phase table for the
// local process (the CLI's lab records into the process-wide registry).

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"mcbench"
)

func topCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL (http:// is assumed if missing)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	count := fs.Int("n", 0, "number of refreshes before exiting (0 = until interrupted)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcbench top [-addr URL] [-interval D] [-n N]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "mcbench top: unexpected arguments %v\n", fs.Args())
		return 2
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c, err := mcbench.NewClient(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench top:", err)
		return 1
	}
	oneShot := *count == 1
	for i := 0; ; i++ {
		snap, err := c.Metrics(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return 0
			}
			fmt.Fprintln(os.Stderr, "mcbench top:", err)
			return 1
		}
		// The fleet view only exists on a coordinator; a 404 just means
		// this node is a worker or standalone.
		fleet, err := c.FleetMetrics(ctx)
		if err != nil && !mcbench.IsNotFound(err) && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "mcbench top: fleet metrics:", err)
		}
		if !oneShot {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear: a fresh frame
		}
		renderTop(os.Stdout, base, snap, fleet)
		if *count > 0 && i+1 >= *count {
			return 0
		}
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(*interval):
		}
	}
}

// renderTop draws one frame of the dashboard.
func renderTop(w io.Writer, base string, snap *mcbench.MetricsSnapshot, fleet *mcbench.FleetMetricsView) {
	up := time.Duration(snap.Gauge("mcbench_uptime_seconds") * float64(time.Second))
	fmt.Fprintf(w, "mcbench top — %s — up %s\n\n", base, up.Round(time.Second))

	ctr := snap.Counter
	fmt.Fprintf(w, "jobs    submitted %.0f (coalesced %.0f)  executed %.0f  done %.0f  failed %.0f  canceled %.0f  panics %.0f  timeouts %.0f\n",
		ctr("mcbench_jobs_submitted_total"), ctr("mcbench_jobs_coalesced_total"),
		ctr("mcbench_jobs_executed_total"), ctr("mcbench_jobs_completed_total"),
		ctr("mcbench_jobs_failed_total"), ctr("mcbench_jobs_canceled_total"),
		ctr("mcbench_jobs_panics_total"), ctr("mcbench_jobs_timeout_total"))
	fmt.Fprintf(w, "now     queued %.0f  running %.0f\n",
		snap.Gauge("mcbench_jobs_queued"), snap.Gauge("mcbench_jobs_running"))
	fmt.Fprintf(w, "sweeps  badco %.0f  detailed %.0f\n",
		snap.Counters[`mcbench_sweeps_total{sim="badco"}`],
		snap.Counters[`mcbench_sweeps_total{sim="detailed"}`])
	fmt.Fprintf(w, "store   saves %.0f  load hits %.0f  misses %.0f  fabric read-through %.0f\n",
		ctr("mcbench_store_saves_total"), ctr("mcbench_store_load_hits_total"),
		ctr("mcbench_store_load_misses_total"), ctr("mcbench_store_fabric_readthrough_total"))
	fmt.Fprintf(w, "lab     cache hits %.0f  misses %.0f\n",
		ctr("mcbench_lab_cache_hits_total"), ctr("mcbench_lab_cache_misses_total"))

	if rows := httpRows(snap); len(rows) > 0 {
		fmt.Fprintf(w, "\n%-28s %8s %10s %10s\n", "endpoint", "reqs", "p50", "p95")
		for _, r := range rows {
			fmt.Fprintf(w, "%-28s %8.0f %10s %10s\n", r.endpoint, r.reqs, fsec(r.p50), fsec(r.p95))
		}
	}
	if rows := phaseRows(snap.Histograms); len(rows) > 0 {
		fmt.Fprintf(w, "\n%-10s %-14s %6s %10s %10s\n", "sim", "phase", "runs", "p50", "total")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-14s %6d %10s %10s\n", r.sim, r.phase, r.count, fsec(r.p50), fsec(r.total))
		}
	}
	if fleet != nil {
		fmt.Fprintf(w, "\nfleet   workers %d scraped, %d failed  queued %.0f  running %.0f  sweeps %.0f  shards stolen %d\n",
			fleet.WorkersScraped, fleet.WorkersFailed,
			fleet.TotalQueued, fleet.TotalRunning, fleet.TotalSweeps, fleet.ShardsStolen)
		if len(fleet.Workers) > 0 {
			fmt.Fprintf(w, "%-14s %-22s %8s %6s %6s %8s %8s %10s\n",
				"worker", "addr", "beat", "queued", "run", "sweeps", "uptime", "sweeps/s")
			for _, wm := range fleet.Workers {
				if wm.Error != "" {
					fmt.Fprintf(w, "%-14s %-22s %8s  ! %s\n", wm.ID, wm.Addr, wm.HeartbeatAge, wm.Error)
					continue
				}
				fmt.Fprintf(w, "%-14s %-22s %8s %6.0f %6.0f %8.0f %8s %10.3f\n",
					wm.ID, wm.Addr, wm.HeartbeatAge, wm.Queued, wm.Running,
					wm.SweepsBadco+wm.SweepsDetailed,
					(time.Duration(wm.UptimeSeconds * float64(time.Second))).Round(time.Second),
					wm.SweepsPerSecond)
			}
		}
	}
}

type httpRow struct {
	endpoint string
	reqs     float64
	p50, p95 float64
}

func httpRows(snap *mcbench.MetricsSnapshot) []httpRow {
	var rows []httpRow
	for key, reqs := range snap.Counters {
		name, labels := parseSeries(key)
		if name != "mcbench_http_requests_total" {
			continue
		}
		ep := labels["endpoint"]
		r := httpRow{endpoint: ep, reqs: reqs}
		if h, ok := snap.Histograms[fmt.Sprintf("mcbench_http_request_seconds{endpoint=%q}", ep)]; ok {
			r.p50, r.p95 = h.P50, h.P95
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].endpoint < rows[j].endpoint })
	return rows
}

type phaseRow struct {
	sim, phase string
	count      int64
	p50, total float64
}

// phaseRows distils the mcbench_lab_phase_seconds histogram family into
// a per-(sim, phase) table, kernel phase order preserved.
func phaseRows(hists map[string]mcbench.HistogramStat) []phaseRow {
	var rows []phaseRow
	for key, h := range hists {
		name, labels := parseSeries(key)
		if name != "mcbench_lab_phase_seconds" || h.Count == 0 {
			continue
		}
		rows = append(rows, phaseRow{
			sim: labels["sim"], phase: labels["phase"],
			count: h.Count, p50: h.P50, total: h.Sum,
		})
	}
	order := map[string]int{"trace_load": 0, "model_build": 1, "warmup": 2, "fast_forward": 3, "measure": 4, "store_save": 5}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].sim != rows[j].sim {
			return rows[i].sim < rows[j].sim
		}
		oi, oki := order[rows[i].phase]
		oj, okj := order[rows[j].phase]
		if oki && okj && oi != oj {
			return oi < oj
		}
		return rows[i].phase < rows[j].phase
	})
	return rows
}

// printTiming renders the local process's per-phase timing breakdown —
// the batch-mode `-timing` report. The lab records into the
// process-wide registry when no private one is configured, so after a
// campaign this is exactly the run's cost profile.
func printTiming(w io.Writer) {
	snap := mcbench.Telemetry()
	rows := phaseRows(snap.Histograms)
	if len(rows) == 0 {
		fmt.Fprintln(w, "\ntiming: no instrumented products ran (telemetry disabled, or everything came from cache)")
		return
	}
	fmt.Fprintf(w, "\nsimulation phase timing:\n")
	fmt.Fprintf(w, "  %-10s %-14s %6s %10s %10s\n", "sim", "phase", "runs", "p50", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-14s %6d %10s %10s\n", r.sim, r.phase, r.count, fsec(r.p50), fsec(r.total))
	}
	if prods := productRows(snap.Histograms); len(prods) > 0 {
		fmt.Fprintf(w, "\n  %-40s %6s %10s %10s\n", "product", "runs", "p95", "total")
		for _, r := range prods {
			fmt.Fprintf(w, "  %-40s %6d %10s %10s\n", r.id, r.count, fsec(r.p95), fsec(r.total))
		}
	}
}

type productRow struct {
	id         string
	count      int64
	p95, total float64
}

// productRows distils the mcbench_lab_product_seconds histogram family
// into one row per product, named by the fields the product is keyed on:
// the simulator, then the policy and core count where the product has
// them ("models", "ref cores=2", "badco/LRU cores=2").
func productRows(hists map[string]mcbench.HistogramStat) []productRow {
	var rows []productRow
	for key, h := range hists {
		name, labels := parseSeries(key)
		if name != "mcbench_lab_product_seconds" || h.Count == 0 {
			continue
		}
		id := labels["sim"]
		if p := labels["policy"]; p != "" {
			id += "/" + p
		}
		if c := labels["cores"]; c != "0" {
			id += " cores=" + c
		}
		rows = append(rows, productRow{id: id, count: h.Count, p95: h.P95, total: h.Sum})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	return rows
}

// parseSeries splits a snapshot key (`name{k="v",...}` or bare `name`)
// back into name and labels. Label values never contain quotes here —
// they are sims, policies, phases and route patterns.
func parseSeries(key string) (string, map[string]string) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, nil
	}
	name := key[:open]
	body := strings.TrimSuffix(key[open+1:], "}")
	labels := make(map[string]string)
	for _, pair := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		labels[k] = strings.Trim(v, `"`)
	}
	return name, labels
}

// fsec formats a duration given in (float) seconds compactly.
func fsec(s float64) string {
	if s == 0 {
		return "0"
	}
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
