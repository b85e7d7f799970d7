package mcbench

import (
	"mcbench/internal/cophase"
)

// Cophase is a co-phase matrix simulator (Van Biesbrouck et al., ISPASS
// 2006 — the rigorous multiprogram simulation method the paper's
// footnote 4 points to): per-phase detailed samples fill a matrix of
// co-phase IPCs, and executions of any length are predicted analytically
// from it.
type Cophase = cophase.Simulator

// CophaseConfig parameterises the co-phase matrix method.
type CophaseConfig = cophase.Config

// CophaseResult is a co-phase prediction: per-thread IPCs plus the
// matrix size and detailed-simulation cost behind them.
type CophaseResult = cophase.Result

// NewCophase builds a co-phase simulator for the named workload over the
// given traces — materialised from any benchmark source via
// Source.Trace, or from the fixed-suite helper GenerateTrace.
func NewCophase(workload []string, traces map[string]*Trace, cfg CophaseConfig) (*Cophase, error) {
	return cophase.New(workload, traces, cfg)
}
