package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateSim = flag.Bool("update-sim", false, "rewrite testdata/sim.txt from the current output")

// TestSimGolden pins what `mcbench sim` writes, to standard output and
// standard error, and its exit code: both simulators' columns, a warmed
// window, a sampled run, and the hints on an unknown benchmark and on a
// warmup beyond the quota.
func TestSimGolden(t *testing.T) {
	runs := [][]string{
		{"-quick", "sim", "DRRIP", "mcf,povray"},
		{"-quick", "sim", "-warmup", "3000", "DRRIP", "mcf,soplex"},
		{"-quick", "sim", "-sample", "4000:1000:500", "LRU", "mcf,povray"},
		{"-quick", "sim", "LRU", "nosuch"},
		{"-quick", "sim", "-warmup", "5000", "-quota", "4000", "LRU", "mcf"},
	}
	sections := make([]string, len(runs))
	for i, args := range runs {
		code, stdout, stderr := runMain(t, args...)
		sections[i] = fmt.Sprintf("$ mcbench %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s", strings.Join(args, " "), code, stdout, stderr)
	}
	got := strings.Join(sections, "\n")
	path := filepath.Join("testdata", "sim.txt")
	if *updateSim {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("mcbench sim output changed; if deliberate, rerun with -update-sim.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
