// Command tracegen generates, stores and inspects the synthetic benchmark
// traces that stand in for the paper's SimpleScalar EIO traces.
//
// Usage:
//
//	tracegen -out DIR [-len N] [benchmark...]   generate traces to DIR
//	tracegen -info FILE...                      summarise stored traces
//	tracegen -list                              list the 22-benchmark suite
//
// Without a benchmark list, -out generates the whole suite. Stored traces
// use the compact delta/varint format of internal/trace (one .mcbt file
// per benchmark) and are verified by checksum on load.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mcbench/internal/bench"
	"mcbench/internal/profile"
	"mcbench/internal/trace"
)

func main() {
	out := flag.String("out", "", "output directory for generated traces")
	length := flag.Int("len", trace.DefaultTraceLen, "µops per trace")
	info := flag.Bool("info", false, "summarise stored trace files")
	list := flag.Bool("list", false, "list the benchmark suite")
	flag.Parse()

	switch {
	case *list:
		listSuite()
	case *info:
		if err := describe(flag.Args()); err != nil {
			fail(err)
		}
	case *out != "":
		if err := generate(*out, *length, flag.Args()); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

func listSuite() {
	fmt.Printf("%-12s %6s %6s %6s %6s  %s\n", "benchmark", "load", "store", "branch", "fp", "patterns")
	for _, b := range bench.Describe(bench.NewSuite()) {
		p := b.Params
		fmt.Printf("%-12s %6.2f %6.2f %6.2f %6.2f  %s\n",
			b.Name, p.LoadFrac, p.StoreFrac, p.BranchFrac, p.FPFrac, strings.Join(p.Patterns, "+"))
	}
}

func generate(dir string, length int, names []string) error {
	if len(names) == 0 {
		names = trace.SuiteNames()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		params, ok := trace.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", name)
		}
		tr, err := trace.Generate(params, length)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+".mcbt")
		if err := tr.SaveFile(path); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %8d µops  %8d bytes  (%.1f bytes/µop)  %s\n",
			name, tr.Len(), st.Size(), float64(st.Size())/float64(tr.Len()), path)
	}
	return nil
}

func describe(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: tracegen -info FILE...")
	}
	for _, path := range paths {
		tr, err := trace.LoadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		p, err := profile.Compute(tr)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: %s, %d µops\n", path, tr.Name, tr.Len())
		fmt.Printf("  mix: %.2f load, %.2f store, %.2f branch, %.2f fp, %.2f call/ret\n",
			p.LoadFrac, p.StoreFrac, p.BranchFrac, p.FPFrac, p.CallFrac)
		fmt.Printf("  footprint: %d code lines, %d data lines; %.0f%% sequential refs\n",
			p.CodeLines, p.DataLines, p.SeqFrac*100)
		fmt.Printf("  est. miss ratio: %.3f @16kB, %.3f @256kB, %.3f @1MB; est. MPKI @512kB: %.2f\n",
			p.MissRatio(1<<8), p.MissRatio(1<<12), p.MissRatio(1<<14), p.EstMPKI(512<<10))
	}
	return nil
}
