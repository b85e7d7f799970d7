package cpu

// The direction predictor lives in package bpred (TAGE, tournament,
// gshare, bimodal — Config.Predictor selects one). The default is bimodal:
// the baseline synthetic traces give each branch site an independent
// outcome bias with no cross-branch correlation, so a history-based
// predictor gains nothing over a per-site table there; traces generated
// with loop or correlated branch sites (trace.Params.LoopFrac/CorrFrac)
// are where TAGE pulls ahead — see the predictor ablation experiment.
//
// This file keeps the core-private TLB model.

// tlb is a direct-mapped translation cache of virtual page numbers.
type tlb struct {
	tags   []uint64 // vpage+1 so zero means empty
	mask   uint64
	misses uint64
	hits   uint64
}

func newTLB(entries int) *tlb {
	if entries < 1 {
		entries = 1
	}
	// Round up to a power of two for cheap indexing.
	n := 1
	for n < entries {
		n <<= 1
	}
	return &tlb{tags: make([]uint64, n), mask: uint64(n - 1)}
}

// lookup returns true on a TLB hit and installs the page on a miss.
func (t *tlb) lookup(vpage uint64) bool {
	idx := vpage & t.mask
	if t.tags[idx] == vpage+1 {
		t.hits++
		return true
	}
	t.tags[idx] = vpage + 1
	t.misses++
	return false
}
