package main

import (
	"context"
	"io"
	"testing"
	"time"
)

// tinySize keeps the workload tests to seconds: the sampled workload's
// traces hold exactly one 20 000-µop sampling unit.
var tinySize = sizes{traceLen: 4000, longTraceLen: 20000}

func TestWorkloadsAtTinySize(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			setup, err := w.prepare(ctx, 1, t.TempDir(), tinySize)
			if err != nil {
				t.Fatal(err)
			}
			s, err := setup(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := s.close(); err != nil {
					t.Error(err)
				}
			}()
			r := &runner{s: s, chk: newChecker(s.size()), log: io.Discard}
			// Three operations, then the first one again: a repeat must
			// reproduce its output.
			var ph phase
			if w.name == "serve-mixed" {
				ph = r.measure(ctx, time.Second, 0, nil, 0)
			} else {
				ph = r.measure(ctx, 0, 3, nil, 0)
				r.next.Store(0)
				ph.ops += r.measure(ctx, 0, 1, nil, 0).ops
			}
			if ph.failed > 0 || ph.ops < 3 || ph.muops <= 0 {
				t.Errorf("%d of %d operations failed, %v Mµops simulated", ph.failed, ph.ops, ph.muops)
			}
		})
	}
}

func TestProbesReplayExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	res, err := runProbes(context.Background(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.mismatches > 0 || res.replays != 66 {
		t.Errorf("%d of %d replays reproduced different completion times", res.mismatches, res.replays)
	}
	for _, d := range perLayer {
		if v, ok := res.metrics[d.Name]; ok && !(v > 0) {
			t.Errorf("%s = %v", d.Name, v)
		}
	}
	if len(res.metrics) != 11 {
		t.Errorf("%d probe metrics, want 11", len(res.metrics))
	}
}

func TestCheckerCatchesNondeterminism(t *testing.T) {
	c := newChecker(2)
	if err := c.record(0, 7); err != nil {
		t.Fatal(err)
	}
	if _, complete := c.cycleDigest(); complete {
		t.Error("a half-filled cycle reports a digest")
	}
	if err := c.record(0, 8); err == nil {
		t.Error("a repeat with another output passed")
	}
	if err := c.record(1, 9); err != nil {
		t.Fatal(err)
	}
	if _, complete := c.cycleDigest(); !complete {
		t.Error("a full cycle reports no digest")
	}
}
