package mcbench_test

// End-to-end test of the public distributed-lab surface: Serve hosts a
// coordinator and two joined workers in-process (the real Client-backed
// peer path, retries and all), a warm campaign shards across the fleet
// with zero duplicate sweeps, and the result fabric serves the tables
// from any node by content key.

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"mcbench"
)

// startFleetServer boots one fleet node; join empty makes it the
// coordinator. Each node gets its own cache directory — the fabric, not
// shared disk, is what must converge.
func startFleetServer(t *testing.T, cacheDir, join string) (*mcbench.Client, string) {
	t.Helper()
	cfg := mcbench.QuickConfig()
	cfg.TraceLen = 2000
	cfg.CacheDir = cacheDir
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- mcbench.Serve(ctx, cfg, mcbench.ServeOptions{
			Addr: "127.0.0.1:0", Workers: 2,
			Join: join, FleetHeartbeat: time.Second,
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
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("drained fleet node returned %v, want nil", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("fleet node did not drain")
		}
	})
	c, err := mcbench.NewClient("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	return c, addr
}

func TestFleetPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweeps")
	}
	ctx := context.Background()
	coord, coordAddr := startFleetServer(t, t.TempDir(), "")
	workers := []*mcbench.Client{}
	for i := 0; i < 2; i++ {
		w, _ := startFleetServer(t, t.TempDir(), coordAddr)
		workers = append(workers, w)
	}

	// The coordinator sees both workers join; the workers report their
	// granted membership.
	deadline := time.Now().Add(15 * time.Second)
	for {
		h, err := coord.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Fleet != nil && h.Fleet.Role == "coordinator" && h.Fleet.Peers == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never saw 2 peers: %+v", h.Fleet)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The coordinator counts a member when it grants the join; the
	// worker records its member ID only once it reads the grant, so each
	// worker is polled until the ID lands.
	for _, w := range workers {
		h, err := w.Health(ctx)
		for err == nil && (h.Fleet == nil || h.Fleet.MemberID == "") && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			h, err = w.Health(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		if h.Fleet == nil || h.Fleet.Role != "worker" || h.Fleet.Coordinator != coordAddr || h.Fleet.MemberID == "" {
			t.Errorf("worker fleet health %+v", h.Fleet)
		}
	}

	// A mixed-version join is rejected with 409 over the public client.
	bad := mcbench.FleetJoinRequest{Addr: "127.0.0.1:1"}
	bad.Source, bad.TraceLen = "suite", 2000
	bad.Build.Module, bad.Build.Version = "mcbench", "v9.9.9-mixed"
	if _, err := coord.FleetJoin(ctx, bad); err == nil {
		t.Error("mixed-version FleetJoin succeeded, want 409")
	} else {
		var ae *mcbench.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
			t.Errorf("mixed-version FleetJoin error %v, want a 409 APIError", err)
		}
	}

	// A warm campaign shards across the fleet: the workers sweep, the
	// coordinator reads everything through the fabric.
	products := []mcbench.ProductRef{
		{Sim: "badco", Cores: 2, Policy: "LRU"},
		{Sim: "badco", Cores: 2, Policy: "DRRIP"},
	}
	st, err := coord.SubmitWarm(ctx, products)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Warmed != len(products) {
		t.Errorf("Warmed = %d, want %d", res.Warmed, len(products))
	}
	h, err := coord.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Sweeps.Badco != 0 || h.Sweeps.Detailed != 0 {
		t.Errorf("coordinator sweeps %+v, want zero — the fleet should have computed everything", h.Sweeps)
	}
	var workerSweeps int64
	for _, w := range workers {
		wh, err := w.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		workerSweeps += wh.Sweeps.Badco
	}
	if workerSweeps != int64(len(products)) {
		t.Errorf("workers ran %d badco sweeps, want exactly %d fleet-wide", workerSweeps, len(products))
	}

	// The result fabric: every product is fetchable from the coordinator
	// by content key, raw bytes with the integrity footer.
	entries, err := coord.Cache(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(products) {
		t.Fatalf("coordinator cache has %d entries, want %d", len(entries), len(products))
	}
	for _, e := range entries {
		if e.Corrupt {
			t.Errorf("cache entry %q corrupt", e.Key)
			continue
		}
		data, ok, err := coord.CacheGet(ctx, e.Key)
		if err != nil || !ok || len(data) == 0 {
			t.Errorf("CacheGet(%q) = %d bytes, ok=%v, err=%v", e.Key, len(data), ok, err)
		}
		if !strings.Contains(string(data), "mcbench-crc32:") {
			t.Errorf("CacheGet(%q) bytes lack the integrity footer", e.Key)
		}
	}
	// Misses are a plain ok=false, not an error.
	if _, ok, err := coord.CacheGet(ctx, "no-such-key"); ok || err != nil {
		t.Errorf("CacheGet(absent) = ok=%v err=%v, want plain miss", ok, err)
	}

	// Fleet-wide telemetry: the coordinator scrapes both workers through
	// the Client-backed peer path and aggregates the sweeps it just
	// refused to run itself.
	fm, err := coord.FleetMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fm.WorkersScraped != 2 || fm.WorkersFailed != 0 {
		t.Fatalf("fleet metrics scraped %d / failed %d, want 2 / 0: %+v", fm.WorkersScraped, fm.WorkersFailed, fm)
	}
	if int(fm.TotalSweeps) != len(products) {
		t.Errorf("fleet TotalSweeps = %.0f, want %d", fm.TotalSweeps, len(products))
	}
	for _, wm := range fm.Workers {
		if wm.ID == "" || wm.Addr == "" || wm.Error != "" {
			t.Errorf("worker metrics row %+v", wm)
		}
		if wm.UptimeSeconds <= 0 {
			t.Errorf("worker %s uptime %.3fs, want > 0", wm.ID, wm.UptimeSeconds)
		}
	}

	// Each worker's own /metrics agrees with its /healthz sweep count,
	// and /fleet/metrics on a non-coordinator is a plain 404.
	var metricSweeps float64
	for _, w := range workers {
		snap, err := w.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		metricSweeps += snap.Counter("mcbench_sweeps_total")
		if up := snap.Gauge("mcbench_uptime_seconds"); up <= 0 {
			t.Errorf("worker uptime gauge %.3f, want > 0", up)
		}
	}
	if int(metricSweeps) != len(products) {
		t.Errorf("workers' /metrics report %.0f sweeps, want %d", metricSweeps, len(products))
	}
	if _, err := workers[0].FleetMetrics(ctx); !mcbench.IsNotFound(err) {
		t.Errorf("FleetMetrics on a worker = %v, want a 404 not-found", err)
	}
}
