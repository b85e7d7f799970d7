package cpu

import (
	"testing"

	"mcbench/internal/bpred"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// callParams returns a call-heavy benchmark parameter set.
func callParams(callFrac float64) trace.Params {
	return trace.Params{
		Name:        "callheavy",
		LoadFrac:    0.2,
		StoreFrac:   0.1,
		BranchFrac:  0.1,
		FPFrac:      0.05,
		CallFrac:    callFrac,
		DepMean:     6,
		LoadDepFrac: 0.4,
		BranchBias:  0.95,
		CodeBytes:   8 << 10,
		Patterns:    []trace.PatternSpec{{Kind: trace.HotSet, Bytes: 32 << 10, Weight: 1}},
		Seed:        41,
	}
}

func TestCallReturnOpsExecute(t *testing.T) {
	tr := trace.MustGenerate(callParams(0.08), 30000)
	calls, rets := 0, 0
	for _, op := range tr.Ops {
		switch op.Kind {
		case trace.Call:
			calls++
			if op.Addr() == 0 {
				t.Fatal("call op without target")
			}
		case trace.Ret:
			rets++
		}
	}
	if calls == 0 || rets == 0 {
		t.Fatalf("trace has %d calls / %d returns; generator knob inert", calls, rets)
	}
	if rets > calls {
		t.Fatalf("more returns (%d) than calls (%d): nesting broken", rets, calls)
	}

	c := MustNew(0, DefaultConfig(), tr, &uncore.FixedLatency{Lat: 40})
	st := c.Run(tr.Len())
	if st.Committed != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", st.Committed, tr.Len())
	}
	if st.IPC() <= 0 || st.IPC() > float64(DefaultConfig().CommitWidth) {
		t.Fatalf("IPC %.2f out of range", st.IPC())
	}
}

// Target mispredictions must be visible in the stats and must cost
// cycles: the same trace with calls runs slower than with the target
// structures always right (first iteration warms them; the second should
// be nearly clean for direct calls).
func TestTargetMissesCounted(t *testing.T) {
	tr := trace.MustGenerate(callParams(0.10), 20000)
	c := MustNew(0, DefaultConfig(), tr, &uncore.FixedLatency{Lat: 40})
	st := c.Run(tr.Len())
	if st.TargetMisses == 0 {
		t.Fatal("no target misses recorded on a call-heavy trace (compulsory BTAC misses expected)")
	}
	// Second pass: direct-call targets are warm; misses should grow far
	// slower than in the first pass.
	first := st.TargetMisses
	st2 := c.Run(tr.Len())
	second := st2.TargetMisses - first
	if second > first {
		t.Errorf("target misses grew after warm-up: first pass %d, second pass %d", first, second)
	}
}

// A trace without calls must never touch the target predictors.
func TestNoCallsNoTargetMisses(t *testing.T) {
	p := callParams(0)
	p.Name = "nocalls"
	tr := trace.MustGenerate(p, 10000)
	c := MustNew(0, DefaultConfig(), tr, &uncore.FixedLatency{Lat: 40})
	if st := c.Run(tr.Len()); st.TargetMisses != 0 {
		t.Errorf("TargetMisses = %d on a call-free trace", st.TargetMisses)
	}
}

// Predictor selection: on a loop-branch-heavy trace TAGE must mispredict
// substantially less than bimodal, and the IPC must not get worse.
func TestTAGEBeatsBimodalOnLoopBranches(t *testing.T) {
	p := callParams(0)
	p.Name = "loopy"
	p.BranchFrac = 0.18
	p.LoopFrac = 0.95
	tr := trace.MustGenerate(p, 60000)

	// Steady-state miss rate: second pass over the trace, after the
	// predictor tables (and TAGE's allocation churn) have warmed.
	missRate := func(kind bpred.Kind) float64 {
		cfg := DefaultConfig()
		cfg.Predictor = kind
		c := MustNew(0, cfg, tr, &uncore.FixedLatency{Lat: 40})
		warm := c.Run(tr.Len())
		st := c.Run(tr.Len())
		return float64(st.BranchMisses-warm.BranchMisses) /
			float64(st.BranchLookups-warm.BranchLookups)
	}
	bm := missRate(bpred.Bimodal)
	tg := missRate(bpred.TAGE)
	if bm < 0.04 {
		t.Fatalf("bimodal unexpectedly good (%.3f) on loop branches; test premise broken", bm)
	}
	// Interleaved non-loop branches inject noise bits into the global
	// history, so TAGE cannot reach zero; it must still be clearly ahead
	// of the per-site predictor, which is blind to the loop position.
	if tg > bm*0.75 {
		t.Errorf("TAGE miss rate %.3f not clearly better than bimodal %.3f", tg, bm)
	}
}

// Correlated branches: same expectation as loops.
func TestTAGEBeatsBimodalOnCorrelatedBranches(t *testing.T) {
	p := callParams(0)
	p.Name = "corr"
	p.BranchFrac = 0.18
	p.BranchBias = 0.6 // drivers near-random: correlation is the only signal
	p.CorrFrac = 0.5
	tr := trace.MustGenerate(p, 60000)

	missRate := func(kind bpred.Kind) float64 {
		cfg := DefaultConfig()
		cfg.Predictor = kind
		c := MustNew(0, cfg, tr, &uncore.FixedLatency{Lat: 40})
		warm := c.Run(tr.Len())
		st := c.Run(tr.Len())
		return float64(st.BranchMisses-warm.BranchMisses) /
			float64(st.BranchLookups-warm.BranchLookups)
	}
	bm := missRate(bpred.Bimodal)
	tg := missRate(bpred.TAGE)
	// Half the branches carry a pure history signal bimodal cannot see:
	// TAGE must be clearly ahead, not marginally.
	if tg > bm-0.10 {
		t.Errorf("TAGE miss rate %.3f not clearly better than bimodal %.3f on correlated branches", tg, bm)
	}
}

// An unknown predictor kind must be rejected at construction.
func TestUnknownPredictorRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = "neural"
	tr := trace.MustGenerate(callParams(0), 1000)
	if _, err := New(0, cfg, tr, &uncore.FixedLatency{Lat: 10}); err == nil {
		t.Fatal("unknown predictor kind accepted")
	}
}

// The default (empty) predictor kind must behave exactly like bimodal so
// that configurations predating the knob reproduce identical results.
func TestDefaultPredictorIsBimodal(t *testing.T) {
	tr := trace.MustGenerate(callParams(0.05), 20000)
	cfgA := DefaultConfig()
	cfgA.Predictor = ""
	cfgB := DefaultConfig()
	cfgB.Predictor = bpred.Bimodal
	a := MustNew(0, cfgA, tr, &uncore.FixedLatency{Lat: 40}).Run(tr.Len())
	b := MustNew(0, cfgB, tr, &uncore.FixedLatency{Lat: 40}).Run(tr.Len())
	if a.Cycles != b.Cycles || a.BranchMisses != b.BranchMisses {
		t.Errorf("empty kind differs from bimodal: %+v vs %+v", a, b)
	}
}
