// Shared-warmup checkpoints. A Checkpoint freezes a detailed machine —
// every core and the shared uncore — at a warmup boundary, so a k-policy
// sweep can run a workload's expensive cache-warming prefix once
// (DetailedWarmup) and fan every policy's measurement out from the
// restored state (DetailedFrom) instead of paying the warmup k times. The
// restored run is bit-identical to the live two-stage Run under the
// warmup policy, because the smallest-clock-first schedule is memoryless
// given the clocks, committed counts and machine state.
package multicore

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/telemetry"
	"mcbench/internal/uncore"
)

// Checkpoint is a detailed machine frozen at a warmup boundary.
// Restores only read it, so one checkpoint may feed concurrent
// DetailedFrom calls.
type Checkpoint struct {
	workload Workload
	policy   cache.PolicyName
	cores    []cpu.State
	unc      uncore.State
}

// DetailedWarmup runs the workload's first warmup µops per thread under
// the detailed model and returns the machine frozen at that boundary.
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
	unc, cores, _, err := buildDetailed(ctx, w, traces, policy, warmup)
	if err != nil {
		return nil, err
	}
	stop := telemetry.FromContext(ctx).Time(phaseWarmup)
	err = warm(ctx, drv, asSteppers(cores), warmup)
	stop()
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{
		workload: append(Workload(nil), w...),
		policy:   policy,
		cores:    make([]cpu.State, len(cores)),
	}
	for i, c := range cores {
		c.Snapshot(&cp.cores[i])
	}
	unc.Snapshot(&cp.unc)
	return cp, nil
}

// restore loads the checkpoint into machines built for its workload
// under its warmup policy (so the restored policy metadata matches) and
// then, for policy fan-out, swaps the LLC policy for a fresh instance of
// the requested one while the warmed cache contents stay.
func (cp *Checkpoint) restore(unc *uncore.Uncore, cores []*cpu.Core, policy cache.PolicyName) error {
	for i, c := range cores {
		c.Restore(&cp.cores[i])
	}
	unc.Restore(&cp.unc)
	if policy == cp.policy {
		return nil
	}
	return unc.SetPolicy(policy, unc.Config().PolicySeed)
}

// DetailedFrom restores a warmup checkpoint and measures quota further
// µops per thread under the given policy, which may differ from the
// warmup policy: the LLC keeps its warmed contents and the replacement
// metadata restarts fresh. Cycles and IPC are relative to the restore
// point. A zero quota defaults to the trace length.
func DetailedFrom(ctx context.Context, cp *Checkpoint, traces TraceSource, policy cache.PolicyName, quota uint64) (Result, error) {
	return detailedFrom(ctx, cp, traces, policy, quota, drive)
}

// detailedFrom is DetailedFrom under an explicit driver.
func detailedFrom(ctx context.Context, cp *Checkpoint, traces TraceSource, policy cache.PolicyName, quota uint64, drv driver) (Result, error) {
	unc, cores, quota, err := buildDetailed(ctx, cp.workload, traces, cp.policy, quota)
	if err != nil {
		return Result{}, err
	}
	if err := cp.restore(unc, cores, policy); err != nil {
		return Result{}, err
	}
	return measure(ctx, cp.workload, policy, asSteppers(cores), quota, drv)
}
