package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcbench"
)

// session is one set-up workload, ready to run its operations. Its
// operations form a fixed cycle of size() entries derived from the seed;
// the measured phase runs them in order, wrapping around, so every
// operation after the first cycle repeats an earlier one and must
// reproduce its output bit for bit.
type session interface {
	size() int
	// do runs operation i (0 ≤ i < size) and checks its output.
	do(ctx context.Context, i int, traced bool) (outcome, error)
	close() error
}

// outcome is what one operation reports.
type outcome struct {
	digest uint64  // FNV-64a of the operation's output
	muops  float64 // simulated µops (threads × µops per thread); 0 for non-simulation jobs
	kind   string  // operation class, for the traced breakdown
	// status is the settled server-side job of a serve operation in a
	// traced run (nil otherwise); its timestamps split the client
	// latency into queueing, service and transport. settled, when set,
	// ends the operation's latency: the checks and the traced status
	// request that follow a serve job's Wait are not part of it.
	status  *mcbench.JobStatus
	settled time.Time
}

// checker pins operation outputs: the first run of an operation fills its
// slot, every repeat must match it, and a completed cycle's digest must
// match the pinned digest when one exists for the seed.
type checker struct {
	mu     sync.Mutex
	slots  []uint64
	filled []bool
}

func newChecker(n int) *checker {
	return &checker{slots: make([]uint64, n), filled: make([]bool, n)}
}

func (c *checker) record(i int, d uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.filled[i] && c.slots[i] != d {
		return fmt.Errorf("operation %d: output digest %016x differs from its earlier run %016x", i, d, c.slots[i])
	}
	c.slots[i], c.filled[i] = d, true
	return nil
}

// cycleDigest returns the digest of one whole cycle of outputs, or false
// when some operation has not run yet.
func (c *checker) cycleDigest() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := newDigest()
	for i, ok := range c.filled {
		if !ok {
			return 0, false
		}
		h.u64(c.slots[i])
	}
	return h.sum(), true
}

// phase summarises one measured phase.
type phase struct {
	ops, failed int
	wall        time.Duration
	latencies   []float64 // per operation, ms
	muops       float64
	queue, http time.Duration // serve jobs, traced runs only
	service     map[string][]float64
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

// runner drives a session's operations from a fixed pool of workers, one
// per CPU: each worker runs its next operation as soon as its previous one
// returns (a closed loop).
type runner struct {
	s      session
	chk    *checker
	next   atomic.Int64
	log    io.Writer
	logged atomic.Int32
}

// measure runs operations for d (or, with limit > 0, until the cycle
// index reaches limit) and returns the phase summary. Operations started
// before the deadline complete and count; the wall time includes them.
func (r *runner) measure(ctx context.Context, d time.Duration, limit int, tr *tracer, parent uint64) phase {
	workers := runtime.GOMAXPROCS(0)
	var (
		mu sync.Mutex
		ph = phase{service: map[string][]float64{}}
		wg sync.WaitGroup
	)
	root := tr.newID()
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (limit > 0 || time.Now().Before(deadline)) {
				i := int(r.next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				k := i % r.s.size()
				t0 := time.Now()
				out, err := r.s.do(ctx, k, tr != nil)
				t1 := time.Now()
				if !out.settled.IsZero() {
					t1 = out.settled
				}
				if err == nil {
					err = r.chk.record(k, out.digest)
				}
				id := tr.add(out.kind, root, t0, t1)
				mu.Lock()
				ph.ops++
				ph.latencies = append(ph.latencies, float64(t1.Sub(t0))/1e6)
				if err != nil {
					ph.failed++
				} else {
					ph.muops += out.muops
				}
				if st := out.status; st != nil {
					service := st.Finished.Sub(st.Started)
					ph.queue += st.Started.Sub(st.Created)
					ph.http += t1.Sub(t0) - st.Finished.Sub(st.Created)
					ph.service[out.kind] = append(ph.service[out.kind], float64(service)/1e6)
					tr.add("queue_wait", id, st.Created, st.Started)
					tr.add("service", id, st.Started, st.Finished)
				}
				mu.Unlock()
				if err != nil && r.logged.Add(1) <= 5 {
					fmt.Fprintf(r.log, "benchmark: operation %d failed: %v\n", k, err)
				}
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	tr.record(root, parent, "measure", start, time.Now())
	return ph
}

// digest is an FNV-64a hash over the bit patterns of an output.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d *digest) floats(xs []float64) {
	for _, x := range xs {
		d.u64(math.Float64bits(x))
	}
}

func (d *digest) uints(xs []uint64) {
	for _, x := range xs {
		d.u64(x)
	}
}

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) sum() uint64 { return d.h.Sum64() }
