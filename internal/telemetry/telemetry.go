// Package telemetry is a dependency-free metrics layer: atomic
// counters, gauges and bounded-bucket histograms collected in a
// registry that renders Prometheus text exposition or a JSON-friendly
// Snapshot, plus lightweight timing spans (span.go) for phase
// breakdowns of long computations.
//
// Design constraints, in order:
//
//   - Zero allocations and no locks on the hot recording path
//     (Counter.Inc, Gauge.Set, Histogram.Observe are single atomic
//     ops; pinned by AllocsPerRun in the tests). Registration is the
//     slow path and may allocate.
//   - Standard library only, so the simulation kernel can be
//     instrumented without pulling a dependency into every import.
//   - Recording can be disabled process-wide (SetEnabled / Disabled)
//     to measure the instrumentation's own overhead A/B, through the
//     MCBENCH_TELEMETRY=off environment variable, honoured at init:
//     MCBENCH_TELEMETRY=off bash benchmark/run.sh passes it on to every
//     workload process.
//
// Histograms record int64 values into power-of-two buckets. By
// convention a histogram whose name ends in "_seconds" is fed
// nanoseconds (ObserveDuration) and is scaled to seconds on export,
// matching Prometheus base-unit practice while keeping the hot path
// integer-only.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

func init() {
	switch os.Getenv("MCBENCH_TELEMETRY") {
	case "off", "0", "false":
		enabled.Store(false)
	default:
		enabled.Store(true)
	}
}

// Enabled reports whether recording is currently on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns recording on or off process-wide. Existing values
// are retained; only new observations are dropped while off.
func SetEnabled(on bool) { enabled.Store(on) }

// Disabled turns recording off and returns a func restoring the
// previous state — `defer telemetry.Disabled()()` brackets a region.
func Disabled() (restore func()) {
	prev := enabled.Swap(false)
	return func() { enabled.Store(prev) }
}

// Counter is a monotonically increasing counter. The zero value is
// ready to use standalone; Registry.Counter hands out registered ones.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer value that can go up and down. The zero value
// is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if enabled.Load() {
		g.v.Store(v)
	}
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if enabled.Load() {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// numBuckets covers the full positive int64 range in powers of two:
// bucket 0 holds zero, bucket i holds values in [2^(i-1), 2^i).
const numBuckets = 64

// Histogram is a fixed-size power-of-two-bucket histogram of int64
// values (negative observations clamp to zero). The zero value is
// ready to use. Observe is a handful of atomic adds — no locks, no
// allocations — so it is safe on hot paths; quantiles are estimated
// at read time by linear interpolation inside the landing bucket.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// bucketBounds returns the inclusive value range covered by bucket i.
func bucketBounds(i int) (lo, hi int64) {
	switch i {
	case 0:
		return 0, 0
	case numBuckets - 1:
		return 1 << (numBuckets - 2), math.MaxInt64
	}
	return 1 << (i - 1), 1<<i - 1
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the observed
// values by interpolating linearly within the landing bucket. Returns
// 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < numBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / n
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	_, hi := bucketBounds(numBuckets - 1)
	return float64(hi)
}

// Label is one name/value pair attached to a metric series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered metric sample set (a family name plus one
// concrete label combination).
type series struct {
	name   string // family name
	labels string // rendered {k="v",...} or ""
	help   string
	kind   metricKind
	scale  float64 // export multiplier (1e-9 for *_seconds histograms)

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

func (s *series) key() string { return s.name + s.labels }

// Registry holds a set of named metrics. Registration memoizes by
// name+labels, so calling Counter twice with the same identity
// returns the same handle; registering the same identity with a
// different kind panics (a programming error).
type Registry struct {
	mu   sync.Mutex
	byID map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*series)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Library and CLI use
// lands here; a serve node builds its own registry per server so
// concurrent servers in one process (tests) stay isolated.
func Default() *Registry { return defaultRegistry }

// renderLabels produces the canonical `{k="v",...}` form, sorted by
// key, with Prometheus escaping; empty for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) register(name, help string, kind metricKind, labels []Label) *series {
	s := &series{name: name, labels: renderLabels(labels), help: help, kind: kind, scale: 1}
	if kind == kindHistogram && strings.HasSuffix(name, "_seconds") {
		s.scale = 1e-9
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[s.key()]; ok {
		if prev.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)",
				s.key(), kind.promType(), prev.kind.promType()))
		}
		return prev
	}
	switch kind {
	case kindCounter:
		s.counter = new(Counter)
	case kindGauge:
		s.gauge = new(Gauge)
	case kindHistogram:
		s.hist = new(Histogram)
	}
	r.byID[s.key()] = s
	return s
}

// Counter registers (or finds) a counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels).counter
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels).gauge
}

// Histogram registers (or finds) a histogram series. Names ending in
// "_seconds" are fed nanoseconds and exported scaled to seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels).hist
}

// CounterFunc registers a counter whose value is collected at scrape
// time from fn. Use it to mirror an existing authoritative counter
// (e.g. the job manager's stats) without double bookkeeping. fn must
// be safe for concurrent calls and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounterFunc, labels).fn = fn
}

// GaugeFunc registers a gauge collected at scrape time from fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, labels).fn = fn
}

// sorted returns all series ordered by (family, labels) under the lock.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	all := make([]*series, 0, len(r.byID))
	for _, s := range r.byID {
		all = append(all, s)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].labels < all[j].labels
	})
	return all
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sampleValue returns the current scalar value of a non-histogram series.
func (s *series) sampleValue() float64 {
	switch s.kind {
	case kindCounter:
		return float64(s.counter.Value())
	case kindGauge:
		return float64(s.gauge.Value())
	default:
		return s.fn()
	}
}

// withLE splices an le label into a rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families sorted by
// name, series by label set, histogram buckets ascending with only
// occupied buckets emitted (plus +Inf).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	prevFamily := ""
	for _, s := range r.sorted() {
		if s.name != prevFamily {
			prevFamily = s.name
			fmt.Fprintf(&b, "# HELP %s %s\n", s.name, s.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind.promType())
		}
		if s.kind != kindHistogram {
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatFloat(s.sampleValue()))
			continue
		}
		h := s.hist
		var cum int64
		for i := 0; i < numBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			_, hi := bucketBounds(i)
			le := formatFloat(float64(hi) * s.scale)
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, withLE(s.labels, le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, withLE(s.labels, "+Inf"), h.Count())
		fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, s.labels, formatFloat(float64(h.Sum())*s.scale))
		fmt.Fprintf(&b, "%s_count%s %d\n", s.name, s.labels, h.Count())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// HistogramSnapshot is the JSON summary of one histogram series.
// Values are in the exported unit (seconds for *_seconds histograms).
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time JSON-serializable view of a registry,
// keyed by the full series identity (name plus rendered labels). It
// is the wire format for fleet metric scrapes, /metrics?format=json
// and mcbench.Metrics().
type Snapshot struct {
	Counters   map[string]float64           `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot collects the current value of every series.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, s := range r.sorted() {
		switch s.kind {
		case kindCounter, kindCounterFunc:
			snap.Counters[s.key()] = s.sampleValue()
		case kindGauge, kindGaugeFunc:
			snap.Gauges[s.key()] = s.sampleValue()
		case kindHistogram:
			h := s.hist
			snap.Histograms[s.key()] = HistogramSnapshot{
				Count: h.Count(),
				Sum:   float64(h.Sum()) * s.scale,
				P50:   h.Quantile(0.50) * s.scale,
				P95:   h.Quantile(0.95) * s.scale,
				P99:   h.Quantile(0.99) * s.scale,
			}
		}
	}
	return snap
}

// familyMatch reports whether a series key belongs to family name
// (exact match or name followed by a label set).
func familyMatch(key, name string) bool {
	return key == name || (strings.HasPrefix(key, name) && len(key) > len(name) && key[len(name)] == '{')
}

// Counter sums every series of the named counter family (all label
// combinations). Returns 0 when absent.
func (s Snapshot) Counter(name string) float64 {
	var sum float64
	for k, v := range s.Counters {
		if familyMatch(k, name) {
			sum += v
		}
	}
	return sum
}

// Gauge sums every series of the named gauge family.
func (s Snapshot) Gauge(name string) float64 {
	var sum float64
	for k, v := range s.Gauges {
		if familyMatch(k, name) {
			sum += v
		}
	}
	return sum
}
