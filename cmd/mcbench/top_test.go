package main

import (
	"context"
	"reflect"
	"testing"

	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/experiments"
	"mcbench/internal/telemetry"
)

// TestProductRowsPinned pins the text of the -timing product rows: one
// row per product the lab computed, named by its simulator, and by its
// policy and core count where the product is keyed on them.
func TestProductRowsPinned(t *testing.T) {
	src, err := bench.Parse("scaled:12:1")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	lab := experiments.NewLab(experiments.Config{TraceLen: 2000, Seed: 1, Source: src, PopLimit: 8, Metrics: reg})
	plan := []experiments.Request{
		{Sim: experiments.SimBadco, Cores: 2, Policy: cache.LRU},
		{Sim: experiments.SimRef, Cores: 2},
		{Sim: experiments.SimMPKI},
	}
	if _, err := lab.Warm(context.Background(), plan, 1); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range productRows(reg.Snapshot().Histograms) {
		if r.count != 1 {
			t.Errorf("row %q counts %d runs, want 1", r.id, r.count)
		}
		got = append(got, r.id)
	}
	if want := []string{"badco/LRU cores=2", "models", "mpki", "ref cores=2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("product rows %q, want %q", got, want)
	}
}
