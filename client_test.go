package mcbench_test

// End-to-end test of the public serving surface: Serve hosts the
// experiment service in-process, Client drives it, and cancelling the
// lifetime context drains the server cleanly (the SIGTERM path).

import (
	"context"
	"strings"
	"testing"
	"time"

	"mcbench"
)

func startServer(t *testing.T, cfg mcbench.Config) (*mcbench.Client, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- mcbench.Serve(ctx, cfg, mcbench.ServeOptions{
			Addr: "127.0.0.1:0", Workers: 2,
			OnReady: func(addr string) { ready <- addr },
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		cancel()
		t.Fatalf("Serve exited before ready: %v", err)
	case <-time.After(15 * time.Second):
		cancel()
		t.Fatal("server never became ready")
	}
	c, err := mcbench.NewClient("http://" + addr)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return c, cancel, done
}

func TestServeAndClientEndToEnd(t *testing.T) {
	c, cancel, done := startServer(t, tinyConfig())
	defer cancel()
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || !h.OK {
		t.Fatalf("Health: %+v, %v", h, err)
	}
	if h.Build.GoVersion == "" || h.Source != "suite" {
		t.Errorf("health payload %+v", h)
	}
	exps, err := c.ServerExperiments(ctx)
	if err != nil || len(exps) < 20 {
		t.Fatalf("ServerExperiments: %d, %v", len(exps), err)
	}
	source, benches, err := c.Benches(ctx)
	if err != nil || source != "suite" || len(benches) != 22 {
		t.Fatalf("Benches: %s/%d, %v", source, len(benches), err)
	}
	// No cache directory configured: the listing is empty, not an error.
	entries, err := c.Cache(ctx)
	if err != nil || len(entries) != 0 {
		t.Fatalf("Cache: %d entries, %v", len(entries), err)
	}

	// Submit a simulation-free experiment and follow it to the result.
	st, err := c.SubmitExperiment(ctx, "config", 0)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	if _, err := c.Events(ctx, st.ID, 0, func(ev mcbench.JobEvent) bool {
		types = append(types, ev.Type)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[len(types)-1] != "done" {
		t.Errorf("event types %v", types)
	}
	res, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil || len(res.Table.Rows) == 0 || !strings.Contains(res.Text, "==") {
		t.Fatalf("empty result %+v", res)
	}

	// Unknown experiments fail at submission with the suggestion.
	if _, err := c.SubmitExperiment(ctx, "fig12", 0); err == nil || !strings.Contains(err.Error(), "fig1") {
		t.Errorf("unknown-experiment error %v lacks suggestion", err)
	}
	// Options the server cannot honour are rejected client-side.
	if _, err := c.SubmitSimulate(ctx, []string{"mcf"}, mcbench.WithTraceLen(100)); err == nil {
		t.Error("SubmitSimulate accepted WithTraceLen")
	}
	if jobs, err := c.Jobs(ctx); err != nil || len(jobs) < 1 {
		t.Errorf("Jobs: %d, %v", len(jobs), err)
	}

	// Cancelling the lifetime context drains cleanly: nil return, the
	// exit-0 path of a SIGTERM'd server.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained Serve returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not drain")
	}
}

func TestClientSimulateJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	c, cancel, _ := startServer(t, tinyConfig())
	defer cancel()
	ctx := context.Background()

	st, err := c.SubmitSimulate(ctx, []string{"mcf"},
		mcbench.WithCores(2), mcbench.WithSimulator(mcbench.BADCO))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || len(res.Results[0].IPC) != 2 {
		t.Fatalf("simulate result %+v", res)
	}
	for _, v := range res.Results[0].IPC {
		if v <= 0 || v > 4 {
			t.Errorf("implausible IPC %g", v)
		}
	}
}

// TestClientSweepJob round-trips an ad-hoc sweep through the public
// client: the served results come back indexed like the submitted
// workloads, with the IPCs a local Sweep at the lab's trace length
// computes.
func TestClientSweepJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := tinyConfig()
	c, cancel, _ := startServer(t, cfg)
	defer cancel()
	ctx := context.Background()

	workloads := [][]string{{"mcf", "povray"}, {"gcc", "soplex"}}
	opts := []mcbench.Option{mcbench.WithPolicy(mcbench.DRRIP), mcbench.WithQuota(2000)}
	st, err := c.SubmitSweep(ctx, workloads, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	local, err := mcbench.Sweep(ctx, workloads, append(opts, mcbench.WithTraceLen(cfg.TraceLen))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(workloads) {
		t.Fatalf("sweep returned %d results, want %d", len(res.Results), len(workloads))
	}
	for i, r := range res.Results {
		if strings.Join(r.Workload, ",") != strings.Join(workloads[i], ",") || len(r.IPC) != len(local[i].IPC) {
			t.Fatalf("result %d: workload %v with %d IPCs, want %v with %d", i, r.Workload, len(r.IPC), workloads[i], len(local[i].IPC))
		}
		for j := range r.IPC {
			if r.IPC[j] != local[i].IPC[j] {
				t.Errorf("workload %v core %d: served IPC %g, local %g", workloads[i], j, r.IPC[j], local[i].IPC[j])
			}
		}
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := mcbench.NewClient("ftp://nope"); err == nil {
		t.Error("non-http scheme accepted")
	}
	if _, err := mcbench.NewClient("http://ok.example"); err != nil {
		t.Errorf("valid URL rejected: %v", err)
	}
}

// TestClientSampledJob submits a sampled simulation through the public
// client and checks the estimate comes back with its confidence columns.
func TestClientSampledJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	c, cancel, _ := startServer(t, tinyConfig())
	defer cancel()
	ctx := context.Background()

	st, err := c.SubmitSimulate(ctx, []string{"mcf", "povray"},
		mcbench.WithSampling(1000, 200, 200))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("results %+v", res)
	}
	r := res.Results[0]
	if r.Windows != 4 { // tinyConfig: 4000-µop traces, 1000-µop units
		t.Errorf("windows = %d, want 4", r.Windows)
	}
	if len(r.CIHalf) != 2 || len(r.CV) != 2 || r.Sampling == nil {
		t.Fatalf("sampled result lacks confidence columns: %+v", r)
	}
	// The server rejects invalid sampling combinations up front.
	if _, err := c.SubmitSimulate(ctx, []string{"mcf"},
		mcbench.WithSampling(1000, 200, 200),
		mcbench.WithSimulator(mcbench.BADCO)); err == nil {
		t.Error("sampled BADCO submission accepted")
	}
}
