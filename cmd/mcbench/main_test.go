package main

import (
	"fmt"
	"testing"
)

// FuzzParseSampleSpec fuzzes the -sample flag parser. It must never
// panic, and an accepted spec re-rendered as unit:window:warmup[:warm]
// must parse to an equal spec.
func FuzzParseSampleSpec(f *testing.F) {
	for _, s := range []string{"4000:1000:500", "20000:2000:2000:8000", "0:0:0", "1:2", "1:2:3:4:5", "4000:1000:-1", "18446744073709551616:1:1", "+5:1:1", ":::"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := parseSampleSpec(s)
		if err != nil {
			return
		}
		if !spec.Enabled() {
			t.Fatalf("parseSampleSpec(%q) accepted a disabled spec %+v", s, spec)
		}
		text := fmt.Sprintf("%d:%d:%d", spec.Unit, spec.Window, spec.Warmup)
		if spec.Warm != 0 {
			text += fmt.Sprintf(":%d", spec.Warm)
		}
		again, err := parseSampleSpec(text)
		if err != nil {
			t.Fatalf("parseSampleSpec(%q) rejected the rendering %q of %q: %v", text, text, s, err)
		}
		if again != spec {
			t.Fatalf("parseSampleSpec(%q) = %+v, want %+v (from %q)", text, again, spec, s)
		}
	})
}
