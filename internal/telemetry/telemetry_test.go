package telemetry

import (
	"context"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	r := NewRegistry()
	depth := int64(7)
	r.GaugeFunc("g", "g", func() float64 { return float64(depth) })
	depth -= 3
	if got := r.Snapshot().Gauge("g"); got != 4 {
		t.Fatalf("gauge = %g, want 4 (sampled at snapshot time)", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var hist Histogram
	// 1000 observations uniform over [0, 1000): the q-th quantile
	// must land in the right power-of-two bucket.
	for i := int64(0); i < 1000; i++ {
		hist.Observe(i)
	}
	if hist.Count() != 1000 {
		t.Fatalf("count = %d", hist.Count())
	}
	if hist.Sum() != 999*1000/2 {
		t.Fatalf("sum = %d", hist.Sum())
	}
	p50 := hist.Quantile(0.50)
	if p50 < 256 || p50 > 1023 {
		t.Fatalf("p50 = %g, want within [256,1023]", p50)
	}
	p99 := hist.Quantile(0.99)
	if p99 < 512 || p99 > 1023 {
		t.Fatalf("p99 = %g, want within [512,1023]", p99)
	}
	if q := hist.Quantile(0); q < 0 || q > 1 {
		t.Fatalf("q0 = %g", q)
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g", got)
	}
	// Negative observations clamp to zero rather than corrupting a bucket.
	empty.Observe(-5)
	if got, want := empty.Quantile(1), 0.0; got != want {
		t.Fatalf("clamped quantile = %g, want %g", got, want)
	}
	// Extremes stay in range.
	empty.Observe(math.MaxInt64)
	if got := empty.Quantile(1); got != float64(math.MaxInt64) {
		t.Fatalf("max quantile = %g", got)
	}
}

func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "test counter")
	h := r.Histogram("t_seconds", "test histogram")
	sp := StartSpan()
	sp.Add("warm", time.Millisecond) // pre-create the phase entry

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sp.Add("warm", time.Microsecond) }); n != 0 {
		t.Errorf("Span.Add (existing phase) allocates %v/op", n)
	}
	var nilSpan *Span
	if n := testing.AllocsPerRun(1000, func() { nilSpan.Time("x")() }); n != 0 {
		t.Errorf("nil Span.Time allocates %v/op", n)
	}
}

func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c")
	h := r.Histogram("cc_seconds", "h")
	sp := StartSpan()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i))
				sp.Add("work", time.Nanosecond)
				// Concurrent registration of the same identity must
				// return the same handle, not a fresh series.
				if got := r.Counter("cc_total", "c"); got != c {
					t.Error("re-registration returned a different handle")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	bd := sp.Breakdown()
	if len(bd) != 1 || bd[0].Count != workers*per || bd[0].Total != workers*per*time.Nanosecond {
		t.Fatalf("span breakdown = %+v", bd)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Histogram("x_total", "x")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "requests", L("endpoint", "/jobs")).Add(3)
	r.Counter("app_requests_total", "requests", L("endpoint", "/healthz")).Add(1)
	r.GaugeFunc("app_queue", "queue depth", func() float64 { return 5 })
	r.GaugeFunc("app_uptime_seconds", "uptime", func() float64 { return 1.5 })
	r.CounterFunc("app_done_total", "done", func() float64 { return 9 })
	h := r.Histogram("app_latency_seconds", "latency", L("endpoint", "/jobs"))
	h.ObserveDuration(500 * time.Millisecond)
	h.ObserveDuration(time.Second)
	h.ObserveDuration(2 * time.Second)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP app_requests_total requests\n",
		"# TYPE app_requests_total counter\n",
		`app_requests_total{endpoint="/healthz"} 1`,
		`app_requests_total{endpoint="/jobs"} 3`,
		"# TYPE app_queue gauge\napp_queue 5\n",
		"# TYPE app_uptime_seconds gauge\napp_uptime_seconds 1.5\n",
		"# TYPE app_done_total counter\napp_done_total 9\n",
		"# TYPE app_latency_seconds histogram\n",
		`app_latency_seconds_bucket{endpoint="/jobs",le="+Inf"} 3`,
		`app_latency_seconds_count{endpoint="/jobs"} 3`,
		`app_latency_seconds_sum{endpoint="/jobs"} 3.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Exactly one HELP/TYPE pair per family even with multiple series.
	if got := strings.Count(out, "# TYPE app_requests_total"); got != 1 {
		t.Errorf("TYPE emitted %d times", got)
	}
	// Bucket counts must be cumulative and monotone.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "app_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not monotone: %q after %d", line, last)
		}
		last = v
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("output must end with a newline")
	}
}

func TestSecondsScaling(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", "op latency")
	h.ObserveDuration(1500 * time.Millisecond)
	snap := r.Snapshot()
	hs, ok := snap.Histograms["op_seconds"]
	if !ok {
		t.Fatalf("histogram missing from snapshot: %+v", snap)
	}
	if hs.Sum != 1.5 {
		t.Fatalf("sum = %g, want 1.5 (seconds)", hs.Sum)
	}
	// The p50 estimate must be in seconds too: the landing bucket for
	// 1.5e9 ns is [2^30, 2^31), i.e. roughly [1.07, 2.15] s.
	if hs.P50 < 1 || hs.P50 > 2.2 {
		t.Fatalf("p50 = %g s, want ~1.5", hs.P50)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "op_seconds_sum 1.5\n") {
		t.Fatalf("exposition not scaled to seconds:\n%s", b.String())
	}
}

func TestSnapshotJSONAndFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("sweeps_total", "sweeps", L("sim", "badco")).Add(5)
	r.Counter("sweeps_total", "sweeps", L("sim", "detailed")).Add(2)
	r.Counter("sweeps_total_other", "unrelated").Add(100)
	r.GaugeFunc("depth", "d", func() float64 { return 3 })
	snap := r.Snapshot()
	if got := snap.Counter("sweeps_total"); got != 7 {
		t.Fatalf("family sum = %g, want 7 (must not include sweeps_total_other)", got)
	}
	if got := snap.Gauge("depth"); got != 3 {
		t.Fatalf("gauge = %g", got)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("sweeps_total") != 7 || back.Gauge("depth") != 3 {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
}

func TestDisabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("d_total", "d")
	h := r.Histogram("d_seconds", "d")
	restore := Disabled()
	c.Inc()
	h.Observe(5)
	if sp := StartSpan(); sp != nil {
		t.Error("StartSpan must return nil while disabled")
	}
	restore()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("recorded while disabled: c=%d h=%d", c.Value(), h.Count())
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("recording not restored")
	}
	if !Enabled() {
		t.Fatal("Enabled() = false after restore")
	}
}

func TestSpanContext(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(background) = %v", got)
	}
	sp := StartSpan()
	ctx := NewContext(context.Background(), sp)
	if got := FromContext(ctx); got != sp {
		t.Fatal("span not carried by context")
	}
	// nil span: context unchanged, methods are no-ops.
	if got := NewContext(context.Background(), nil); got != context.Background() {
		t.Fatal("nil span must not wrap the context")
	}
	var nilSpan *Span
	nilSpan.Add("x", time.Second)
	nilSpan.Time("y")()
	if bd := nilSpan.Breakdown(); bd != nil {
		t.Fatalf("nil breakdown = %v", bd)
	}

	done := sp.Time("measure")
	time.Sleep(time.Millisecond)
	done()
	sp.Add("measure", 2*time.Millisecond)
	sp.Add("store_save", time.Millisecond)
	bd := sp.Breakdown()
	if len(bd) != 2 || bd[0].Name != "measure" || bd[1].Name != "store_save" {
		t.Fatalf("breakdown order = %+v", bd)
	}
	if bd[0].Count != 2 || bd[0].Total < 3*time.Millisecond {
		t.Fatalf("measure phase = %+v", bd[0])
	}
}
