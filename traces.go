package mcbench

import (
	"fmt"
	"sort"
	"sync"

	"mcbench/internal/bench"
	"mcbench/internal/trace"
)

// Trace is an immutable µop sequence for one benchmark.
type Trace = trace.Trace

// Source is a named, lazily-memoized provider of benchmark traces — the
// layer that decouples everything above the simulators from any fixed
// benchmark list. Three families exist, addressed by spec strings (see
// Suite):
//
//   - "suite": the fixed 22-benchmark synthetic suite (the SPEC CPU2006
//     stand-ins of the paper);
//   - "scaled:B[:seed]": B ∈ [12, 512] reproducible synthetic benchmarks
//     derived from one seed by jittering the three Table-IV
//     intensity-class families (names like low-017, high-203);
//   - "dir:PATH": recorded .mcbt trace files under PATH, loaded through
//     the binary trace codec.
//
// A source builds each trace on first use and memoizes it until
// Release, so big populations stay cheap: consumers resolve only the
// benchmarks they actually touch, when they touch them.
type Source = bench.Source

// suites is the process-wide shared source registry: one Source per
// canonical spec, so every Simulate/Sweep/Lab naming the same suite
// shares one memoized trace set instead of regenerating it per call.
var suites = struct {
	sync.Mutex
	m map[string]Source
}{m: map[string]Source{}}

// Suite returns the shared benchmark source named by spec (see Source
// for the syntax; "" means "suite"), creating and registering it on
// first use. Repeated calls with equivalent specs ("scaled:64" and
// "scaled:64:1") return the same instance.
func Suite(spec string) (Source, error) {
	suites.Lock()
	defer suites.Unlock()
	if s, ok := suites.m[spec]; ok {
		return s, nil
	}
	src, err := bench.Parse(spec)
	if err != nil {
		return nil, err
	}
	if s, ok := suites.m[src.Name()]; ok {
		// Another spelling of an already-registered source: remember
		// the alias so repeat calls skip the parse (for scaled specs a
		// full parameter derivation, for dir specs a filesystem scan).
		suites.m[spec] = s
		return s, nil
	}
	suites.m[src.Name()] = src
	if spec != src.Name() {
		suites.m[spec] = src
	}
	return src, nil
}

// Suites lists the canonical names of the shared sources registered so
// far, sorted; "suite" is always present. Alias spellings ("scaled:64"
// for "scaled:64:1") collapse onto their canonical name.
func Suites() []string {
	suites.Lock()
	defer suites.Unlock()
	if _, ok := suites.m["suite"]; !ok {
		suites.m["suite"] = bench.NewSuite()
	}
	set := map[string]bool{}
	for _, s := range suites.m {
		set[s.Name()] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultSource returns the shared fixed-suite source.
func defaultSource() Source {
	s, err := Suite("suite")
	if err != nil {
		panic(err) // "suite" always parses
	}
	return s
}

// Benchmarks returns the 22 benchmark names of the fixed suite, in
// suite order. For other sources, use Source.Names (or Lab.Benchmarks).
func Benchmarks() []string { return trace.SuiteNames() }

// GenerateTrace builds a deterministic n-µop trace for the named suite
// benchmark. It is a convenience for the fixed suite; source-aware code
// should call Source.Trace instead.
func GenerateTrace(name string, n int) (*Trace, error) {
	p, ok := trace.ByName(name)
	if !ok {
		return nil, fmt.Errorf("mcbench: unknown benchmark %q (see Benchmarks())", name)
	}
	return trace.Generate(p, n)
}
