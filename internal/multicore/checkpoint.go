// Shared-warmup checkpoints. A Checkpoint is a detailed machine — every
// core and the shared uncore — warmed to a warmup boundary and then left
// alone, so a k-policy sweep can run a workload's expensive
// cache-warming prefix once (DetailedWarmup) and fan every policy's
// measurement out from clones of it (DetailedFrom) instead of paying the
// warmup k times. A clone measures bit-identically to the live
// two-stage Run under the warmup policy, because the
// smallest-clock-first schedule is memoryless given the clocks,
// committed counts and machine state.
package multicore

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/telemetry"
	"mcbench/internal/uncore"
)

// Checkpoint is a detailed machine warmed to a warmup boundary. It is
// never stepped again; clones only read it, so one checkpoint may feed
// concurrent DetailedFrom calls.
type Checkpoint struct {
	workload Workload
	policy   cache.PolicyName
	traceLen uint64 // the first trace's length, DetailedFrom's default quota
	unc      *uncore.Uncore
	cores    []*cpu.Core
}

// DetailedWarmup runs the workload's first warmup µops per thread under
// the detailed model and returns the machine warmed to that boundary.
// The checkpoint is the shared prefix of every run that DetailedFrom
// fans out from it.
func DetailedWarmup(ctx context.Context, w Workload, traces TraceSource, policy cache.PolicyName, warmup uint64) (*Checkpoint, error) {
	return detailedWarmup(ctx, w, traces, policy, warmup, drive)
}

// detailedWarmup is DetailedWarmup under an explicit driver.
func detailedWarmup(ctx context.Context, w Workload, traces TraceSource, policy cache.PolicyName, warmup uint64, drv driver) (*Checkpoint, error) {
	if warmup == 0 {
		return nil, fmt.Errorf("multicore: zero warmup")
	}
	unc, cores, traceLen, err := buildDetailed(ctx, w, traces, policy, 0)
	if err != nil {
		return nil, err
	}
	stop := telemetry.FromContext(ctx).Time(phaseWarmup)
	err = warm(ctx, drv, asSteppers(cores), warmup)
	stop()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		workload: append(Workload(nil), w...),
		policy:   policy,
		traceLen: traceLen,
		unc:      unc,
		cores:    cores,
	}, nil
}

// clone returns an independent copy of the warmed machine, its cores
// bound to the copied uncore.
func (cp *Checkpoint) clone() (*uncore.Uncore, []*cpu.Core) {
	unc := cp.unc.Clone()
	cores := make([]*cpu.Core, len(cp.cores))
	for i, c := range cp.cores {
		cores[i] = c.Clone(unc)
	}
	return unc, cores
}

// DetailedFrom clones a warmup checkpoint and measures quota further
// µops per thread under the given policy, which may differ from the
// warmup policy: the LLC keeps its warmed contents and the replacement
// metadata restarts fresh. Cycles and IPC are relative to the warmup
// boundary. A zero quota defaults to the trace length.
func DetailedFrom(ctx context.Context, cp *Checkpoint, policy cache.PolicyName, quota uint64) (Result, error) {
	return detailedFrom(ctx, cp, policy, quota, drive)
}

// detailedFrom is DetailedFrom under an explicit driver.
func detailedFrom(ctx context.Context, cp *Checkpoint, policy cache.PolicyName, quota uint64, drv driver) (Result, error) {
	unc, cores := cp.clone()
	if policy != cp.policy {
		if err := unc.SetPolicy(policy, unc.Config().PolicySeed); err != nil {
			return Result{}, err
		}
	}
	if quota == 0 {
		quota = cp.traceLen
	}
	return measure(ctx, cp.workload, policy, asSteppers(cores), quota, drv)
}
