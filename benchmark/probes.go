package main

import (
	"context"
	"fmt"
	"time"

	"mcbench/internal/badco"
	"mcbench/internal/bpred"
	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// call is one recorded uncore request. Functional requests return no
// completion time.
type call struct {
	core                        int
	pc, vaddr                   uint64
	write, prefetch, functional bool
	now, done                   uint64
}

// recorder is an uncore.Memory that forwards every request to a real
// uncore and records it with its completion time. It forwards
// AccessFunctional too: without it cpu.Core.FastForward would fall back
// to timed accesses and the probe would measure a different program.
type recorder struct {
	u     *uncore.Uncore
	calls []call
}

func (r *recorder) Access(core int, pc, vaddr uint64, write, prefetch bool, now uint64) uint64 {
	done := r.u.Access(core, pc, vaddr, write, prefetch, now)
	r.calls = append(r.calls, call{core, pc, vaddr, write, prefetch, false, now, done})
	return done
}

func (r *recorder) AccessFunctional(core int, pc, vaddr uint64, write, prefetch bool) {
	r.u.AccessFunctional(core, pc, vaddr, write, prefetch)
	r.calls = append(r.calls, call{core: core, pc: pc, vaddr: vaddr, write: write, prefetch: prefetch, functional: true})
}

// replay issues calls to a fresh uncore and returns the time it took and
// how many timed calls completed at a different time than recorded.
func replay(cfg uncore.Config, calls []call) (time.Duration, int, error) {
	u, err := uncore.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	bad := 0
	t0 := time.Now()
	for _, c := range calls {
		if c.functional {
			u.AccessFunctional(c.core, c.pc, c.vaddr, c.write, c.prefetch)
		} else if u.Access(c.core, c.pc, c.vaddr, c.write, c.prefetch, c.now) != c.done {
			bad++
		}
	}
	return time.Since(t0), bad, nil
}

// recorded runs fn against a recorder over a fresh uncore, then replays
// the recording, and returns fn's time minus the replay's — the layer's
// self time — with the replay's time and the recorded calls.
func recorded(cfg uncore.Config, fn func(uncore.Memory) error) (self, unc time.Duration, calls []call, bad int, err error) {
	u, err := uncore.New(cfg)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	rec := &recorder{u: u}
	t0 := time.Now()
	if err := fn(rec); err != nil {
		return 0, 0, nil, 0, err
	}
	total := time.Since(t0)
	unc, bad, err = replay(cfg, rec.calls)
	return total - unc, unc, rec.calls, bad, err
}

// probeResults are the replay probes' per-layer metrics and their
// self-check: each replay counts as one check, failed when any completion
// time differs from the recorded one.
type probeResults struct {
	metrics             map[string]float64
	replays, mismatches int
}

// runProbes measures each simulator layer alone on n-µop traces of the 22
// suite benchmarks, on the one-core uncore: trace generation, BADCO model
// building, a lone BADCO machine, a lone detailed core (timed and
// fast-forward), its branch predictor, the uncore behind them, and the
// LLC and its prefetcher on the recorded LLC-bound stream.
func runProbes(ctx context.Context, n int) (probeResults, error) {
	cfg := uncore.ConfigFor(1, cache.LRU)
	coreCfg := cpu.DefaultConfig()
	kind := coreCfg.Predictor
	if kind == "" {
		kind = bpred.Bimodal // what cpu.New selects for an unset predictor
	}
	var (
		res                       = probeResults{metrics: map[string]float64{}}
		gen, cpuSelf, ffSelf, unc time.Duration
		badcoSelf, bp             time.Duration
		llc                       = map[cache.PolicyName]time.Duration{}
		pf                        time.Duration
		uops, badcoUops, accesses int
		predicts, lines, observes int
		builds                    []float64
		policies                  = []cache.PolicyName{cache.LRU, cache.DRRIP}
	)
	for _, p := range trace.Suite() {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		t0 := time.Now()
		tr, err := trace.Generate(p, n)
		if err != nil {
			return res, err
		}
		gen += time.Since(t0)

		t0 = time.Now()
		model, err := badco.Build(tr, badco.DefaultBuildConfig())
		if err != nil {
			return res, err
		}
		builds = append(builds, float64(time.Since(t0))/1e6)

		self, u, calls, bad, err := recorded(cfg, func(m uncore.Memory) error {
			c, err := cpu.New(0, coreCfg, tr, m)
			if err == nil {
				c.Run(n)
			}
			return err
		})
		if err != nil {
			return res, err
		}
		cpuSelf, unc, uops, accesses = cpuSelf+self, unc+u, uops+n, accesses+len(calls)
		res.check(bad)

		self, _, _, bad, err = recorded(cfg, func(m uncore.Memory) error {
			c, err := cpu.New(0, coreCfg, tr, m)
			if err == nil {
				c.FastForward(uint64(n))
			}
			return err
		})
		if err != nil {
			return res, err
		}
		ffSelf += self
		res.check(bad)

		self, _, _, bad, err = recorded(cfg, func(m uncore.Memory) error {
			ma, err := badco.NewMachine(0, model, m)
			if err == nil {
				ma.RunIterations(1)
			}
			return err
		})
		if err != nil {
			return res, err
		}
		badcoSelf, badcoUops = badcoSelf+self, badcoUops+model.TraceLen
		res.check(bad)

		pred, err := bpred.New(kind, coreCfg.BPIndexBits, coreCfg.BPHistoryBits)
		if err != nil {
			return res, err
		}
		var branches []trace.Op
		for _, op := range tr.Ops {
			if op.Kind == trace.Branch {
				branches = append(branches, op)
			}
		}
		t0 = time.Now()
		for i := range branches {
			pred.Predict(branches[i].PC, branches[i].Taken)
		}
		bp, predicts = bp+time.Since(t0), predicts+len(branches)

		stream, err := llcStream(cfg, calls)
		if err != nil {
			return res, err
		}
		var misses []bool
		for _, pol := range policies {
			d, m, err := replayLLC(cfg, pol, stream)
			if err != nil {
				return res, err
			}
			llc[pol] += d
			if misses == nil {
				misses = m
			}
		}
		lines += len(stream)
		t0 = time.Now()
		pref := cache.NewStrideStream(cfg.PrefetchDegree)
		for i, a := range stream {
			if !a.prefetch {
				pref.Observe(a.pc^uint64(a.core)<<56, a.paddr, misses[i])
				observes++
			}
		}
		pf += time.Since(t0)
	}
	per := func(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }
	res.metrics["trace.gen_ns_per_uop"] = per(gen, uops)
	res.metrics["badco.build_ms"] = median(builds)
	res.metrics["badco.ns_per_uop"] = per(badcoSelf, badcoUops)
	res.metrics["cpu.ns_per_uop"] = per(cpuSelf, uops)
	res.metrics["cpu.ff_ns_per_uop"] = per(ffSelf, uops)
	res.metrics["bpred.ns_per_predict"] = per(bp, predicts)
	res.metrics["uncore.ns_per_access"] = per(unc, accesses)
	res.metrics["uncore.accesses_per_kuop"] = float64(accesses) * 1000 / float64(uops)
	for _, pol := range policies {
		res.metrics["cache.llc_ns_per_access."+string(pol)] = per(llc[pol], lines)
	}
	res.metrics["cache.prefetch_ns_per_observe"] = per(pf, observes)
	return res, nil
}

func (r *probeResults) check(bad int) {
	r.replays++
	if bad > 0 {
		r.mismatches++
	}
}

// llcAccess is one recorded request as the LLC sees it: physical line
// address, after the uncore's page translation.
type llcAccess struct {
	core            int
	pc, paddr       uint64
	write, prefetch bool
}

// llcStream translates the timed calls of one recording to physical
// addresses, through a fresh uncore's page table.
func llcStream(cfg uncore.Config, calls []call) ([]llcAccess, error) {
	u, err := uncore.New(cfg)
	if err != nil {
		return nil, err
	}
	var out []llcAccess
	for _, c := range calls {
		if !c.functional {
			out = append(out, llcAccess{c.core, c.pc, u.Translate(c.core, c.vaddr), c.write, c.prefetch})
		}
	}
	return out, nil
}

// replayLLC runs the stream through a fresh LLC under pol — a demand
// access filling on a miss, a prefetch filling when absent — and returns
// the time it took and which accesses missed.
func replayLLC(cfg uncore.Config, pol cache.PolicyName, stream []llcAccess) (time.Duration, []bool, error) {
	p, err := cache.NewPolicy(pol, cfg.PolicySeed)
	if err != nil {
		return 0, nil, err
	}
	c, err := cache.New("LLC", cfg.LLCBytes, cfg.LLCWays, p)
	if err != nil {
		return 0, nil, fmt.Errorf("LLC under %s: %w", pol, err)
	}
	misses := make([]bool, len(stream))
	t0 := time.Now()
	for i, a := range stream {
		line := cache.AlignLine(a.paddr)
		if a.prefetch {
			if !c.Probe(line) {
				c.Fill(line, false, true)
			}
		} else if !c.Access(line, a.write) {
			c.Fill(line, a.write, false)
			misses[i] = true
		}
	}
	return time.Since(t0), misses, nil
}
