package bench

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzBenchParse fuzzes the source spec parser behind -suite and the
// public suite registry. Parse must never panic, must refuse scaled:
// counts outside [MinScaled, MaxScaled], and an accepted scaled: spec's
// Name must parse back to a source of the same Name. dir: specs are
// skipped so the fuzzer never walks the filesystem.
func FuzzBenchParse(f *testing.F) {
	for _, s := range []string{"", "suite", "scaled:12", "scaled:512:7", "scaled:64:-3", "scaled:11", "scaled:513", "scaled:+64:007", "scaled:x", "scaled:64:", "bogus"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if strings.HasPrefix(spec, "dir:") {
			return
		}
		src, err := Parse(spec)
		rest, scaled := strings.CutPrefix(spec, "scaled:")
		if scaled {
			count, _, _ := strings.Cut(rest, ":")
			if b, aerr := strconv.Atoi(count); aerr == nil && (b < MinScaled || b > MaxScaled) && err == nil {
				t.Fatalf("Parse(%q) accepted a scaled population of %d", spec, b)
			}
		}
		if err != nil {
			return
		}
		if !scaled {
			if src.Name() != "suite" {
				t.Fatalf("Parse(%q) = source %q, want the suite", spec, src.Name())
			}
			return
		}
		s, ok := src.(*ScaledSource)
		if !ok {
			t.Fatalf("Parse(%q) returned %T, want *ScaledSource", spec, src)
		}
		if s.B() < MinScaled || s.B() > MaxScaled || len(s.Names()) != s.B() {
			t.Fatalf("Parse(%q): population %d with %d names", spec, s.B(), len(s.Names()))
		}
		again, err := Parse(src.Name())
		if err != nil {
			t.Fatalf("Parse(%q) rejected the name of Parse(%q): %v", src.Name(), spec, err)
		}
		if again.Name() != src.Name() {
			t.Fatalf("Parse(%q).Name() = %q, want %q", src.Name(), again.Name(), src.Name())
		}
	})
}
