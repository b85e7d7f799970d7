package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runMain runs the CLI in-process with the given arguments on a fresh
// flag set and returns its exit code and what it wrote to standard
// output and standard error.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	var files [2]*os.File
	for i := range files {
		f, err := os.Create(filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	savedFlags, savedArgs, savedOut, savedErr := flag.CommandLine, os.Args, os.Stdout, os.Stderr
	defer func() { flag.CommandLine, os.Args, os.Stdout, os.Stderr = savedFlags, savedArgs, savedOut, savedErr }()
	flag.CommandLine = flag.NewFlagSet("mcbench", flag.ContinueOnError)
	os.Args = append([]string{"mcbench"}, args...)
	os.Stdout, os.Stderr = files[0], files[1]
	code = realMain()
	var out [2]string
	for i, f := range files {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return code, out[0], out[1]
}

// TestCoresFlagBounded pins the -cores bound: the experiments size their
// machines and populations by it, so a negative count or one beyond the
// largest machine exits with a usage error before any simulation starts.
// 0 is each experiment's paper default, as in Lab.Run and the server.
func TestCoresFlagBounded(t *testing.T) {
	for _, cores := range []string{"-3", "65", "100000"} {
		if code, _, _ := runMain(t, "-quick", "-cores", cores, "fig4"); code != 2 {
			t.Errorf("-cores %s: exit %d, want 2", cores, code)
		}
	}
	for _, cores := range []string{"0", "64"} {
		if code, _, _ := runMain(t, "-quick", "-cores", cores, "fig1"); code != 0 {
			t.Errorf("-cores %s fig1: exit %d, want 0", cores, code)
		}
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

// TestCommandSuggestions checks that a mistyped command gets the command
// as its did-you-mean hint, not an experiment or another command.
func TestCommandSuggestions(t *testing.T) {
	for typo, want := range map[string]string{"serv": "serve", "vesion": "version", "tp": "top", "benchs": "benches", "lst": "list"} {
		code, _, stderr := runMain(t, typo)
		if hint := fmt.Sprintf("(did you mean %q?)", want); code != 2 || !strings.Contains(stderr, hint) {
			t.Errorf("mcbench %s: exit %d, stderr %q; want exit 2 and %s", typo, code, stderr, hint)
		}
	}
}
