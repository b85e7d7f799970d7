package serve

// Canonicalization tests: defaults, key stability (the dedup identity),
// and validation errors.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"mcbench/internal/bench"
	"mcbench/internal/multicore"
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
		// Cores beyond the largest machine: the job would size its
		// populations and BADCO tables by them.
		{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "fig1", Cores: multicore.MaxCores + 1}},
		{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "fig5", Cores: 1000000}},
		{Kind: KindWarm, Warm: &WarmRequest{Products: []ProductRef{{Sim: "badco", Cores: 1000000, Policy: "LRU"}}}},
		{Kind: KindWarm, Warm: &WarmRequest{Products: []ProductRef{{Sim: "detailed", Cores: multicore.MaxCores + 1, Policy: "LRU"}}}},
		{Kind: KindWarm, Warm: &WarmRequest{Products: []ProductRef{{Sim: "ref", Cores: 1 << 40}}}},
	}
	for i, req := range cases {
		if _, _, err := canonicalize(req, src, testTraceLen); err == nil {
			t.Errorf("case %d (%+v): accepted", i, req)
		}
	}
	// The cores bound is inclusive.
	for _, req := range []SubmitRequest{
		{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "fig1", Cores: multicore.MaxCores}},
		{Kind: KindWarm, Warm: &WarmRequest{Products: []ProductRef{{Sim: "badco", Cores: multicore.MaxCores, Policy: "LRU"}}}},
	} {
		if _, _, err := canonicalize(req, src, testTraceLen); err != nil {
			t.Errorf("%+v rejected: %v", req, err)
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
	smp := &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500}
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
			Sampling: &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500, Warm: 2000},
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
			Sampling: &multicore.SamplingSpec{Unit: 4000, Window: 1000}}},
		{"with warmup", SimulateRequest{Workload: []string{"mcf"}, Warmup: 100,
			Sampling: &multicore.SamplingSpec{Unit: 4000, Window: 1000}}},
		{"overfull unit", SimulateRequest{Workload: []string{"mcf"},
			Sampling: &multicore.SamplingSpec{Unit: 1000, Window: 800, Warmup: 300}}},
		{"empty spec", SimulateRequest{Workload: []string{"mcf"}, Sampling: &multicore.SamplingSpec{}}},
		{"warm beyond gap", SimulateRequest{Workload: []string{"mcf"},
			Sampling: &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500, Warm: 2501}}},
		{"warmup wraps the unit", SimulateRequest{Workload: []string{"mcf"},
			Sampling: &multicore.SamplingSpec{Unit: 10000, Window: 2000, Warmup: math.MaxUint64}}},
	}
	for _, c := range cases {
		req := c.req
		_, _, err := canonicalize(SubmitRequest{Kind: KindSimulate, Simulate: &req}, src, testTraceLen)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// pinnedKeyCases are the requests of every run protocol, for simulate
// and sweep alike — exact, warmed, sampled, and sampled with a bounded
// warming stretch — with their full dedup keys. The keys were recorded
// before one function rendered the protocol suffix, so they pin that no
// key moved.
func pinnedKeyCases() []struct {
	name string
	req  SubmitRequest
	want string
} {
	smp := &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500}
	smpWarm := &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500, Warm: 2000}
	ws := [][]string{{"mcf", "gcc"}, {"povray", "milc"}}
	return []struct {
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
	}
}

// TestCanonicalizeKeysPinned asserts the full dedup key of every run
// protocol byte for byte (see pinnedKeyCases).
func TestCanonicalizeKeysPinned(t *testing.T) {
	src := suiteSrc()
	for _, c := range pinnedKeyCases() {
		_, key, err := canonicalize(c.req, src, testTraceLen)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if key != c.want {
			t.Errorf("%s: key %q, want %q", c.name, key, c.want)
		}
	}
}

// FuzzCanonicalize decodes arbitrary bytes the way handleSubmit does and
// canonicalizes the result. It must never panic, a rejection must be a
// *submitError (a 400, never a 500), and canonicalizing an accepted
// request again must return the same request and key.
func FuzzCanonicalize(f *testing.F) {
	for _, c := range pinnedKeyCases() {
		data, err := json.Marshal(c.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	src := suiteSrc()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		canon, key, err := canonicalize(req, src, testTraceLen)
		if err != nil {
			var se *submitError
			if !errors.As(err, &se) {
				t.Fatalf("rejection %v is not a submitError", err)
			}
			return
		}
		// An accepted sampled request fits its unit in exact arithmetic:
		// no field sum may have wrapped around on the way to acceptance.
		var sampling *multicore.SamplingSpec
		switch {
		case canon.Simulate != nil:
			sampling = canon.Simulate.Sampling
		case canon.Sweep != nil:
			sampling = canon.Sweep.Sampling
		}
		if s := sampling; s != nil {
			used, carry := bits.Add64(s.Window, s.Warmup, 0)
			if carry != 0 || used > s.Unit {
				t.Fatalf("accepted %s: window %d + warmup %d exceed unit %d", data, s.Window, s.Warmup, s.Unit)
			}
			if s.Warm > s.Unit-used {
				t.Fatalf("accepted %s: warm %d exceeds gap %d", data, s.Warm, s.Unit-used)
			}
		}
		again, key2, err := canonicalize(canon, src, testTraceLen)
		if err != nil {
			t.Fatalf("canonical request %s rejected: %v", data, err)
		}
		if key2 != key || !reflect.DeepEqual(again, canon) {
			t.Fatalf("canonicalizing %s twice moved it: key %q -> %q", data, key, key2)
		}
	})
}

// TestSamplingWireBytesPinned pins the JSON of a sampled simulate
// request and a sampled result, with the bounded-warming field zero
// (omitted) and set. Clients and stored job logs depend on these bytes.
func TestSamplingWireBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"request", SimulateRequest{Workload: []string{"mcf"},
			Sampling: &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500}},
			`{"workload":["mcf"],"sampling":{"unit":4000,"window":1000,"warmup":500}}`},
		{"request warm", SimulateRequest{Workload: []string{"mcf", "gcc"}, Policy: "DRRIP",
			Sampling: &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warm: 2000}},
			`{"workload":["mcf","gcc"],"policy":"DRRIP","sampling":{"unit":4000,"window":1000,"warm":2000}}`},
		{"result", SimResult{Workload: []string{"mcf"}, Policy: "LRU", Engine: EngineDetailed,
			IPC: []float64{0.5}, Cycles: []uint64{8000}, Instructions: 4000,
			Sampling: &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500},
			CIHalf:   []float64{0.01}, CV: []float64{0.25}, Windows: 4},
			`{"workload":["mcf"],"policy":"LRU","engine":"detailed","ipc":[0.5],"cycles":[8000],"instructions":4000,"sampling":{"unit":4000,"window":1000,"warmup":500},"ci_half":[0.01],"cv":[0.25],"windows":4}`},
		{"result warm", SimResult{Workload: []string{"mcf"}, Policy: "LRU", Engine: EngineDetailed,
			IPC: []float64{0.5}, Cycles: []uint64{8000}, Instructions: 4000,
			Sampling: &multicore.SamplingSpec{Unit: 4000, Window: 1000, Warmup: 500, Warm: 2000},
			CIHalf:   []float64{0.01}, CV: []float64{0.25}, Windows: 4},
			`{"workload":["mcf"],"policy":"LRU","engine":"detailed","ipc":[0.5],"cycles":[8000],"instructions":4000,"sampling":{"unit":4000,"window":1000,"warmup":500,"warm":2000},"ci_half":[0.01],"cv":[0.25],"windows":4}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
