// Package bench provides benchmark sources: named, seeded, lazily
// memoized providers of benchmark traces. A Source decouples every
// consumer — the multicore sweeps, the experiment Lab, the public API,
// the CLI — from the hard-wired 22-benchmark suite: the paper studies
// populations of C(B+K-1, K) workload combinations, and a source is the
// knob that grows B (ScaledSource), swaps in recorded traces
// (DirSource) or keeps the paper's fixed suite (SuiteSource).
//
// Traces are built on first use and memoized until released (one
// memo.Group per source, keyed by benchmark name), so a source's peak
// memory tracks the in-flight working set rather than the whole
// benchmark population: a consumer that releases each trace after
// its last use (e.g. BADCO model building) keeps O(parallelism) traces
// resident instead of O(B).
package bench

import (
	"context"
	"fmt"

	"mcbench/internal/memo"
	"mcbench/internal/trace"
)

// Source is a named, lazily-memoized provider of benchmark traces.
// Implementations are safe for concurrent use.
type Source interface {
	// Name identifies the source ("suite", "scaled:64:7", "dir:PATH").
	// Consumers key memoized products and persistent caches by it, so
	// two sources producing different traces must never share a name.
	Name() string

	// Names returns the benchmark names in the source's canonical order.
	// It never builds a trace.
	Names() []string

	// Trace returns the n-µop trace of the named benchmark, building
	// (or loading) it on first use and memoizing it until released.
	// Concurrent callers for the same benchmark share one build. The
	// returned trace is immutable and remains valid after Release.
	Trace(ctx context.Context, name string, n int) (*trace.Trace, error)

	// Release drops the memoized trace for the named benchmark, freeing
	// its memory once no caller references it. A later Trace call
	// rebuilds it deterministically. Releasing an unknown or unbuilt
	// benchmark is a no-op.
	Release(name string)
}

// Resident reports how many benchmark traces the source currently holds
// memoized (including in-flight builds), or -1 when the source does not
// expose residency. Tests use it to pin the working-set guarantee.
func Resident(s Source) int {
	if r, ok := s.(interface{ Resident() int }); ok {
		return r.Resident()
	}
	return -1
}

// paramsSource is a source backed by a fixed set of trace generator
// parameters (the suite, or a scaled synthetic population).
type paramsSource struct {
	name   string
	names  []string
	params map[string]trace.Params
	m      memo.Group[string, *trace.Trace]
}

func newParamsSource(name string, ps []trace.Params) *paramsSource {
	s := &paramsSource{
		name:   name,
		names:  make([]string, len(ps)),
		params: make(map[string]trace.Params, len(ps)),
	}
	for i, p := range ps {
		s.names[i] = p.Name
		s.params[p.Name] = p
	}
	return s
}

func (s *paramsSource) Name() string { return s.name }

func (s *paramsSource) Names() []string { return append([]string(nil), s.names...) }

// Trace serves one length per benchmark at a time: a memoized trace of
// another length is forgotten and rebuilt (mixed-length use thrashes but
// stays correct).
func (s *paramsSource) Trace(ctx context.Context, name string, n int) (*trace.Trace, error) {
	for {
		tr, err := s.m.Do(ctx, name, func() (*trace.Trace, error) {
			p, ok := s.params[name]
			if !ok {
				return nil, fmt.Errorf("bench: %s: unknown benchmark %q", s.name, name)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return trace.Generate(p, n)
		})
		if err != nil || tr.Len() == n {
			return tr, err
		}
		s.m.Forget(name)
	}
}

func (s *paramsSource) Release(name string) { s.m.Forget(name) }

// Resident returns the number of memoized (or in-flight) traces.
func (s *paramsSource) Resident() int { return s.m.Len() }

// Params returns the generator parameters of the named benchmark, for
// introspection (see Describe); ok is false for unknown names.
func (s *paramsSource) Params(name string) (trace.Params, bool) {
	p, ok := s.params[name]
	return p, ok
}

// Info describes one benchmark of a source: what `mcbench benches`
// prints and GET /benches serves.
type Info struct {
	Name string `json:"name"`
	// Params carries the trace-generator parameters when the source
	// exposes them (load/store/branch/fp fractions, pattern kinds).
	Params *Mix `json:"params,omitempty"`
}

// Mix is the introspectable slice of trace.Params: the instruction mix
// and the access-pattern kinds of a generated benchmark.
type Mix struct {
	LoadFrac   float64  `json:"load_frac"`
	StoreFrac  float64  `json:"store_frac"`
	BranchFrac float64  `json:"branch_frac"`
	FPFrac     float64  `json:"fp_frac"`
	Patterns   []string `json:"patterns,omitempty"`
}

// Describe lists the source's benchmarks in source order, each with its
// generator parameters when the source is generated (the suite and the
// scaled sources); a directory of recorded traces gives names only.
func Describe(src Source) []Info {
	ps, generated := src.(interface {
		Params(string) (trace.Params, bool)
	})
	names := src.Names()
	out := make([]Info, len(names))
	for i, n := range names {
		out[i].Name = n
		if !generated {
			continue
		}
		if p, ok := ps.Params(n); ok {
			mix := &Mix{LoadFrac: p.LoadFrac, StoreFrac: p.StoreFrac, BranchFrac: p.BranchFrac, FPFrac: p.FPFrac}
			for _, spec := range p.Patterns {
				mix.Patterns = append(mix.Patterns, spec.Kind.String())
			}
			out[i].Params = mix
		}
	}
	return out
}

// Provider binds a Source to one trace length. It satisfies the
// trace-resolution interface of internal/multicore, which resolves
// benchmarks by name alone.
type Provider struct {
	src Source
	n   int
}

// At binds the source to a trace length of n µops.
func At(src Source, n int) Provider { return Provider{src: src, n: n} }

// Trace resolves the named benchmark at the provider's bound length.
func (p Provider) Trace(ctx context.Context, name string) (*trace.Trace, error) {
	return p.src.Trace(ctx, name, p.n)
}

// Release forwards to the underlying source.
func (p Provider) Release(name string) { p.src.Release(name) }

// Names lists the underlying source's benchmarks.
func (p Provider) Names() []string { return p.src.Names() }

// Source returns the underlying source.
func (p Provider) Source() Source { return p.src }

// Len returns the bound trace length in µops.
func (p Provider) Len() int { return p.n }
