package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profileShares returns each layer's share of the CPU profile's flat
// samples, attributing every function to its Go package with pprof -top.
func profileShares(ctx context.Context, path string) (map[string]float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top",
		"-nodecount=100000", "-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return layerShares(string(out))
}

// layerShares aggregates the flat column of `pprof -top` output by layer.
func layerShares(top string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		// The function name is the rest of the line; it may contain
		// spaces (" (inline)").
		fn := strings.Join(fields[5:], " ")
		shares[layerOf(packageOf(fn))] += flat
		total += flat
	}
	if total == 0 {
		return nil, fmt.Errorf("the profile holds no samples")
	}
	for _, l := range layers {
		shares[l.name] /= total
	}
	return shares, nil
}

// parseDuration reads a pprof sample value such as "1.20s", "350ms" or
// "0".
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}

// packageOf returns the import path of a pprof function name such as
// "mcbench/internal/cache.(*Cache).Access" or
// "mcbench/internal/experiments.observeRun[go.shape.map[string]*mcbench/internal/badco.Model]".
func packageOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return "runtime" // the runtime's assembly routines, such as memeqbody, carry no package
}

// layerOf maps a package to its layer. A pattern "p/..." matches p and
// every package below it, as in the go command; any other pattern matches
// one package.
func layerOf(pkg string) string {
	for _, l := range layers {
		for _, p := range l.pkgs {
			if tree, ok := strings.CutSuffix(p, "/..."); ok && (pkg == tree || strings.HasPrefix(pkg, tree+"/")) || pkg == p {
				return l.name
			}
		}
	}
	return "other"
}
