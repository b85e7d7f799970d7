package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"mcbench/internal/memo"
	"mcbench/internal/trace"
)

// TraceExt is the file extension of stored traces (the compact
// delta/varint format of internal/trace, as written by cmd/tracegen).
const TraceExt = ".mcbt"

// DirSource serves benchmarks from a directory of stored trace files:
// one <benchmark>.mcbt per benchmark, loaded lazily through the
// internal/trace codecs and memoized until released. It is the path for
// recorded (or externally generated) traces — the role the paper's
// SimpleScalar EIO traces play — instead of the synthetic generators.
type DirSource struct {
	name  string
	dir   string
	names []string
	m     memo.Group[string, *trace.Trace]
}

// NewDir scans dir for stored traces and returns a source over them.
// The benchmark name is the file name without extension; the trace
// embedded in each file must carry the same name (checked on load).
func NewDir(dir string) (*DirSource, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*"+TraceExt))
	if err != nil {
		return nil, fmt.Errorf("bench: scanning %s: %w", dir, err)
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("bench: no %s traces in %s", TraceExt, dir)
	}
	names := make([]string, len(matches))
	for i, m := range matches {
		names[i] = strings.TrimSuffix(filepath.Base(m), TraceExt)
	}
	slices.Sort(names)
	return &DirSource{name: "dir:" + filepath.Clean(dir), dir: dir, names: names}, nil
}

func (s *DirSource) Name() string { return s.name }

func (s *DirSource) Names() []string { return append([]string(nil), s.names...) }

// Trace loads the stored trace. A stored trace has a fixed length: n <=
// 0 (or exactly the stored length) returns it whole, a shorter n
// returns a prefix view sharing the loaded µops, and a longer n is an
// error — a file cannot be extended.
func (s *DirSource) Trace(ctx context.Context, name string, n int) (*trace.Trace, error) {
	full, err := s.m.Do(ctx, name, func() (*trace.Trace, error) { return s.load(ctx, name) })
	if err != nil {
		return nil, err
	}
	switch {
	case n <= 0 || n == full.Len():
		return full, nil
	case n < full.Len():
		return &trace.Trace{Name: full.Name, Ops: full.Ops[:n]}, nil
	default:
		return nil, fmt.Errorf("bench: %s: trace %q holds %d µops, %d requested",
			s.name, name, full.Len(), n)
	}
}

// load reads the named benchmark's whole stored trace.
func (s *DirSource) load(ctx context.Context, bench string) (*trace.Trace, error) {
	if _, ok := slices.BinarySearch(s.names, bench); !ok {
		return nil, fmt.Errorf("bench: %s: unknown benchmark %q", s.name, bench)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := trace.LoadFile(filepath.Join(s.dir, bench+TraceExt))
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", s.name, err)
	}
	if tr.Name != bench {
		return nil, fmt.Errorf("bench: %s: file %s%s contains benchmark %q",
			s.name, bench, TraceExt, tr.Name)
	}
	return tr, nil
}

func (s *DirSource) Release(name string) { s.m.Forget(name) }

// Resident returns the number of loaded (or in-flight) traces.
func (s *DirSource) Resident() int { return s.m.Len() }

// Dir returns the backing directory.
func (s *DirSource) Dir() string { return s.dir }
