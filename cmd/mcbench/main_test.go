package main

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

// runMain runs the CLI in-process with the given arguments on a fresh
// flag set, its standard output discarded, and returns its exit code.
func runMain(t *testing.T, args ...string) int {
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	savedFlags, savedArgs, savedOut := flag.CommandLine, os.Args, os.Stdout
	defer func() { flag.CommandLine, os.Args, os.Stdout = savedFlags, savedArgs, savedOut }()
	flag.CommandLine = flag.NewFlagSet("mcbench", flag.ContinueOnError)
	os.Args = append([]string{"mcbench"}, args...)
	os.Stdout = devNull
	return realMain()
}

// TestCoresFlagBounded pins the -cores bound: the experiments size their
// machines and populations by it, so a count beyond the largest machine
// exits with a usage error before any simulation starts.
func TestCoresFlagBounded(t *testing.T) {
	for _, cores := range []string{"0", "-3", "65", "100000"} {
		if code := runMain(t, "-quick", "-cores", cores, "fig4"); code != 2 {
			t.Errorf("-cores %s: exit %d, want 2", cores, code)
		}
	}
	if code := runMain(t, "-quick", "-cores", "64", "fig1"); code != 0 {
		t.Errorf("-cores 64 fig1: exit %d, want 0", code)
	}
}

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
