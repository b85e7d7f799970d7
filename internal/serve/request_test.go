package serve

// Canonicalization tests: defaults, key stability (the dedup identity),
// and validation errors.

import (
	"strings"
	"testing"

	"mcbench/internal/bench"
)

func suiteSrc() bench.Source { return bench.NewSuite() }

// testTraceLen stands in for the lab's Config.TraceLen when resolving a
// zero quota.
const testTraceLen = 10000

func TestCanonicalizeExperiment(t *testing.T) {
	src := suiteSrc()
	canon, key, err := canonicalize(SubmitRequest{
		Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "fig1", Cores: 2},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if canon.Experiment.Name != "fig1" || key != "exp|fig1|c2" {
		t.Fatalf("canon %+v key %q", canon.Experiment, key)
	}
	// Unknown experiments fail fast with a suggestion.
	_, _, err = canonicalize(SubmitRequest{
		Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "fig12"},
	}, src, testTraceLen)
	if err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("unknown experiment error %v lacks suggestion", err)
	}
}

func TestCanonicalizeSimulateDefaultsAndKey(t *testing.T) {
	src := suiteSrc()
	a, keyA, err := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf", "povray"}},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if a.Simulate.Policy != "LRU" || a.Simulate.Engine != EngineDetailed {
		t.Fatalf("defaults not filled: %+v", a.Simulate)
	}
	// Explicit defaults canonicalize to the same key: they dedup.
	_, keyB, err := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{
			Workload: []string{"mcf", "povray"}, Policy: "LRU", Engine: EngineDetailed,
		},
	}, src, testTraceLen)
	if err != nil || keyA != keyB {
		t.Fatalf("equivalent submissions have keys %q vs %q (err %v)", keyA, keyB, err)
	}
	// Different policy, different key.
	_, keyC, _ := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf", "povray"}, Policy: "DIP"},
	}, src, testTraceLen)
	if keyC == keyA {
		t.Error("different policies share a key")
	}
	// Cores replication canonicalizes into the workload itself.
	d, keyD, err := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf"}, Cores: 2},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Simulate.Workload) != 2 || d.Simulate.Workload[1] != "mcf" {
		t.Fatalf("replication lost: %+v", d.Simulate.Workload)
	}
	_, keyE, _ := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf", "mcf"}},
	}, src, testTraceLen)
	if keyD != keyE {
		t.Errorf("replicated and explicit workloads differ: %q vs %q", keyD, keyE)
	}
}

func TestCanonicalizeRejections(t *testing.T) {
	src := suiteSrc()
	cases := []SubmitRequest{
		{Kind: "nope"},
		{Kind: KindExperiment}, // no payload
		{Kind: KindSimulate},   // no payload
		{Kind: KindSweep},      // no payload
		{Kind: KindSimulate, Simulate: &SimulateRequest{}}, // empty workload
		{Kind: KindSweep, Sweep: &SweepRequest{}},          // empty sweep
		{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "fig1", Cores: -1}},
		{Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"nosuch"}}},
		{Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf"}, Policy: "NOPE"}},
		{Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf"}, Engine: "zesto"}},
		{Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf", "gcc"}, Cores: 4}},
		// Warmup beyond the explicit quota.
		{Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf"}, Quota: 2000, Warmup: 3000}},
		// Warmup beyond the default quota (one trace length).
		{Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf"}, Warmup: testTraceLen + 1}},
		{Kind: KindSweep, Sweep: &SweepRequest{Workloads: [][]string{{"mcf"}}, Quota: 500, Warmup: 600}},
	}
	for i, req := range cases {
		if _, _, err := canonicalize(req, src, testTraceLen); err == nil {
			t.Errorf("case %d (%+v): accepted", i, req)
		}
	}
}

func TestCanonicalizeSweepDigest(t *testing.T) {
	src := suiteSrc()
	ws := [][]string{{"mcf", "gcc"}, {"povray", "milc"}}
	_, keyA, err := canonicalize(SubmitRequest{Kind: KindSweep, Sweep: &SweepRequest{Workloads: ws}}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	_, keyB, _ := canonicalize(SubmitRequest{Kind: KindSweep, Sweep: &SweepRequest{Workloads: ws}}, src, testTraceLen)
	if keyA != keyB {
		t.Errorf("identical sweeps differ: %q vs %q", keyA, keyB)
	}
	// Workload order matters (results are indexed by it).
	_, keyC, _ := canonicalize(SubmitRequest{Kind: KindSweep, Sweep: &SweepRequest{
		Workloads: [][]string{{"povray", "milc"}, {"mcf", "gcc"}},
	}}, src, testTraceLen)
	if keyC == keyA {
		t.Error("reordered sweep shares a key")
	}
}

func TestCanonicalizeWarmupKeys(t *testing.T) {
	src := suiteSrc()
	// A warmed request computes different numbers than a cold one, so it
	// must not dedup onto a cold job; a zero warmup keeps the historic
	// key format byte-for-byte.
	cold, keyCold, err := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf", "povray"}},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if want := "sim|detailed|LRU|q0|mcf,povray"; keyCold != want {
		t.Fatalf("cold key %q, want %q", keyCold, want)
	}
	_, keyWarm, err := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf", "povray"}, Warmup: 2500},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if keyWarm == keyCold {
		t.Error("warmed and cold requests share a key")
	}
	if !strings.HasSuffix(keyWarm, "|w2500") {
		t.Errorf("warm key %q lacks warmup suffix", keyWarm)
	}
	if cold.Simulate.Warmup != 0 {
		t.Errorf("cold canonical form gained warmup %d", cold.Simulate.Warmup)
	}
	// A warmup that fits exactly inside the default quota is accepted.
	if _, _, err := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf"}, Warmup: testTraceLen},
	}, src, testTraceLen); err != nil {
		t.Errorf("warmup == trace length rejected: %v", err)
	}
	// Sweeps carry the same suffix.
	_, keySweep, err := canonicalize(SubmitRequest{
		Kind: KindSweep, Sweep: &SweepRequest{Workloads: [][]string{{"mcf", "gcc"}}, Warmup: 100},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(keySweep, "|w100") {
		t.Errorf("sweep key %q lacks warmup suffix", keySweep)
	}
}

func TestCanonicalizeSamplingKeys(t *testing.T) {
	src := suiteSrc()
	smp := &SampleSpec{Unit: 4000, Window: 1000, Warmup: 500}
	// A sampled request computes estimates, not the exact numbers: it
	// must never dedup onto an exact job.
	_, keySmp, err := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{
			Workload: []string{"mcf", "povray"}, Sampling: smp,
		},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(keySmp, "|smpu4000d1000w500") {
		t.Errorf("sampled key %q lacks spec suffix", keySmp)
	}
	_, keyExact, _ := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{Workload: []string{"mcf", "povray"}},
	}, src, testTraceLen)
	if keySmp == keyExact {
		t.Error("sampled and exact requests share a key")
	}
	// The bounded-warming dial is part of the identity too.
	_, keyWarm, err := canonicalize(SubmitRequest{
		Kind: KindSimulate, Simulate: &SimulateRequest{
			Workload: []string{"mcf", "povray"},
			Sampling: &SampleSpec{Unit: 4000, Window: 1000, Warmup: 500, Warm: 2000},
		},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if keyWarm == keySmp || !strings.HasSuffix(keyWarm, "f2000") {
		t.Errorf("bounded-warm key %q does not extend %q", keyWarm, keySmp)
	}
	// Sweeps carry the same suffix.
	_, keySweep, err := canonicalize(SubmitRequest{
		Kind: KindSweep, Sweep: &SweepRequest{
			Workloads: [][]string{{"mcf", "gcc"}}, Sampling: smp,
		},
	}, src, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(keySweep, "|smpu4000d1000w500") {
		t.Errorf("sampled sweep key %q lacks spec suffix", keySweep)
	}
}

func TestCanonicalizeSamplingRejections(t *testing.T) {
	src := suiteSrc()
	cases := []struct {
		name string
		req  SimulateRequest
	}{
		{"badco engine", SimulateRequest{Workload: []string{"mcf"}, Engine: EngineBadco,
			Sampling: &SampleSpec{Unit: 4000, Window: 1000}}},
		{"with warmup", SimulateRequest{Workload: []string{"mcf"}, Warmup: 100,
			Sampling: &SampleSpec{Unit: 4000, Window: 1000}}},
		{"overfull unit", SimulateRequest{Workload: []string{"mcf"},
			Sampling: &SampleSpec{Unit: 1000, Window: 800, Warmup: 300}}},
		{"empty spec", SimulateRequest{Workload: []string{"mcf"}, Sampling: &SampleSpec{}}},
		{"warm beyond gap", SimulateRequest{Workload: []string{"mcf"},
			Sampling: &SampleSpec{Unit: 4000, Window: 1000, Warmup: 500, Warm: 2501}}},
	}
	for _, c := range cases {
		req := c.req
		_, _, err := canonicalize(SubmitRequest{Kind: KindSimulate, Simulate: &req}, src, testTraceLen)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestCanonicalizeKeysPinned asserts the full dedup key of every run
// protocol byte for byte, for simulate and sweep alike: exact, warmed,
// sampled, and sampled with a bounded warming stretch. The expected
// keys were recorded before the protocol suffix had a single builder,
// so they pin that no key moved.
func TestCanonicalizeKeysPinned(t *testing.T) {
	src := suiteSrc()
	smp := &SampleSpec{Unit: 4000, Window: 1000, Warmup: 500}
	smpWarm := &SampleSpec{Unit: 4000, Window: 1000, Warmup: 500, Warm: 2000}
	ws := [][]string{{"mcf", "gcc"}, {"povray", "milc"}}
	for _, c := range []struct {
		name string
		req  SubmitRequest
		want string
	}{
		{"simulate exact", SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
			Workload: []string{"mcf", "povray"}, Policy: "DRRIP", Quota: 5000}},
			"sim|detailed|DRRIP|q5000|mcf,povray"},
		{"simulate warmed", SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
			Workload: []string{"mcf", "povray"}, Engine: EngineBadco, Warmup: 2500}},
			"sim|badco|LRU|q0|mcf,povray|w2500"},
		{"simulate sampled", SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
			Workload: []string{"mcf"}, Cores: 2, Sampling: smp}},
			"sim|detailed|LRU|q0|mcf,mcf|smpu4000d1000w500"},
		{"simulate sampled warm", SubmitRequest{Kind: KindSimulate, Simulate: &SimulateRequest{
			Workload: []string{"mcf", "povray"}, Quota: 8000, Sampling: smpWarm}},
			"sim|detailed|LRU|q8000|mcf,povray|smpu4000d1000w500f2000"},
		{"sweep exact", SubmitRequest{Kind: KindSweep, Sweep: &SweepRequest{
			Workloads: ws, Engine: EngineBadco}},
			"sweep|badco|LRU|q0|n2|399d4bcff7655460"},
		{"sweep warmed", SubmitRequest{Kind: KindSweep, Sweep: &SweepRequest{
			Workloads: ws, Policy: "DIP", Quota: 6000, Warmup: 100}},
			"sweep|detailed|DIP|q6000|n2|399d4bcff7655460|w100"},
		{"sweep sampled", SubmitRequest{Kind: KindSweep, Sweep: &SweepRequest{
			Workloads: ws, Sampling: smp}},
			"sweep|detailed|LRU|q0|n2|399d4bcff7655460|smpu4000d1000w500"},
		{"sweep sampled warm", SubmitRequest{Kind: KindSweep, Sweep: &SweepRequest{
			Workloads: [][]string{{"mcf"}}, Cores: 2, Sampling: smpWarm}},
			"sweep|detailed|LRU|q0|n1|db1e7c476bb5d98f|smpu4000d1000w500f2000"},
	} {
		_, key, err := canonicalize(c.req, src, testTraceLen)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if key != c.want {
			t.Errorf("%s: key %q, want %q", c.name, key, c.want)
		}
	}
}
