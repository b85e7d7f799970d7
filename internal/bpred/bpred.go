// Package bpred implements the branch direction and target predictors of
// the paper's Table I core: TAGE (the direction predictor named in the
// table), a BTAC (branch target address cache), an indirect-branch target
// predictor and a 16-entry return address stack, plus the simpler bimodal,
// gshare and tournament predictors used as comparators.
//
// All predictors are trace-driven and deterministic: Predict both returns
// the prediction for the branch at pc and immediately trains on the actual
// outcome, which matches in-order resolution of a µop trace. Randomised
// allocation (TAGE) uses an internal LFSR so identical input sequences
// produce identical predictor states.
package bpred

import "fmt"

// Predictor is a conditional-branch direction predictor.
type Predictor interface {
	// Name identifies the predictor ("bimodal", "gshare", ...).
	Name() string
	// Predict returns the predicted direction for the branch at pc and
	// trains the predictor with the actual outcome taken.
	Predict(pc uint64, taken bool) bool
	// Stats returns lookup/miss counts accumulated so far.
	Stats() Stats
	// Clone returns an independent deep copy of the predictor.
	Clone() Predictor
}

// Stats counts predictor activity.
type Stats struct {
	Lookups uint64
	Misses  uint64
}

// MissRate returns Misses/Lookups, or 0 before the first lookup.
func (s Stats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// Kind names a direction predictor implementation.
type Kind string

// Supported predictor kinds.
const (
	Bimodal    Kind = "bimodal"
	GShare     Kind = "gshare"
	Tournament Kind = "tournament"
	TAGE       Kind = "tage"
)

// New builds a predictor of the given kind with a hardware budget
// comparable to the paper's 4 kB TAGE. indexBits sizes the simple
// predictors' tables (2^indexBits counters); historyBits bounds the
// global history of gshare and tournament. TAGE uses its own internal
// table geometry (see NewTAGE) and ignores both parameters.
func New(kind Kind, indexBits, historyBits int) (Predictor, error) {
	switch kind {
	case Bimodal:
		return NewBimodal(indexBits), nil
	case GShare:
		return NewGShare(indexBits, historyBits), nil
	case Tournament:
		return NewTournament(indexBits, historyBits), nil
	case TAGE:
		return NewDefaultTAGE(), nil
	}
	return nil, fmt.Errorf("bpred: unknown predictor kind %q", kind)
}

// MustNew is New for known-good arguments.
func MustNew(kind Kind, indexBits, historyBits int) Predictor {
	p, err := New(kind, indexBits, historyBits)
	if err != nil {
		panic(err)
	}
	return p
}

// counter is an n-bit saturating counter helper; predictors store the
// counter value and use inc/dec with their own maxima.
func inc(c *uint8, max uint8) {
	if *c < max {
		*c++
	}
}

func dec(c *uint8) {
	if *c > 0 {
		*c--
	}
}

// lfsr is a 16-bit linear feedback shift register used for deterministic
// pseudo-random allocation decisions (TAGE).
type lfsr uint16

func newLFSR() lfsr { return 0xACE1 }

// next advances the register and returns its new value.
func (l *lfsr) next() uint16 {
	v := uint16(*l)
	bit := (v ^ v>>2 ^ v>>3 ^ v>>5) & 1
	v = v>>1 | bit<<15
	*l = lfsr(v)
	return v
}
