package bpred

// This file implements the non-TAGE direction predictors: bimodal (per-PC
// 2-bit counters), gshare (global history XOR PC) and a tournament hybrid
// of the two with a per-PC chooser (Alpha 21264 style). They serve both as
// cheap predictor options for the core model and as baselines that the
// TAGE tests compare against.

import "slices"

// ---------------------------------------------------------------------------
// Bimodal

type bimodal struct {
	table []uint8
	mask  uint64
	stats Stats
}

// NewBimodal returns a bimodal predictor with 2^indexBits 2-bit counters.
func NewBimodal(indexBits int) Predictor {
	if indexBits < 1 {
		indexBits = 1
	}
	t := make([]uint8, 1<<indexBits)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &bimodal{table: t, mask: uint64(len(t) - 1)}
}

func (b *bimodal) Name() string { return string(Bimodal) }

func (b *bimodal) Stats() Stats { return b.stats }

func (b *bimodal) Clone() Predictor {
	n := *b
	n.table = slices.Clone(b.table)
	return &n
}

func (b *bimodal) Predict(pc uint64, taken bool) bool {
	ctr := &b.table[(pc>>2)&b.mask]
	predicted := *ctr >= 2
	b.train(ctr, taken)
	b.stats.Lookups++
	if predicted != taken {
		b.stats.Misses++
	}
	return predicted
}

func (b *bimodal) train(ctr *uint8, taken bool) {
	if taken {
		inc(ctr, 3)
	} else {
		dec(ctr)
	}
}

// ---------------------------------------------------------------------------
// GShare

type gshare struct {
	table   []uint8
	mask    uint64
	history uint64
	histLen uint
	stats   Stats
}

// NewGShare returns a gshare predictor with 2^indexBits 2-bit counters
// indexed by PC XOR the last historyBits branch outcomes.
func NewGShare(indexBits, historyBits int) Predictor {
	if indexBits < 1 {
		indexBits = 1
	}
	if historyBits < 1 {
		historyBits = 1
	}
	if historyBits > 62 {
		historyBits = 62
	}
	t := make([]uint8, 1<<indexBits)
	for i := range t {
		t[i] = 2
	}
	return &gshare{table: t, mask: uint64(len(t) - 1), histLen: uint(historyBits)}
}

func (g *gshare) Name() string { return string(GShare) }

func (g *gshare) Stats() Stats { return g.stats }

func (g *gshare) Clone() Predictor {
	n := *g
	n.table = slices.Clone(g.table)
	return &n
}

func (g *gshare) Predict(pc uint64, taken bool) bool {
	idx := ((pc >> 2) ^ g.history) & g.mask
	ctr := &g.table[idx]
	predicted := *ctr >= 2
	if taken {
		inc(ctr, 3)
	} else {
		dec(ctr)
	}
	g.push(taken)
	g.stats.Lookups++
	if predicted != taken {
		g.stats.Misses++
	}
	return predicted
}

func (g *gshare) push(taken bool) {
	g.history = (g.history << 1) & (1<<g.histLen - 1)
	if taken {
		g.history |= 1
	}
}

// ---------------------------------------------------------------------------
// Tournament

type tournament struct {
	local   *bimodal
	global  *gshare
	chooser []uint8 // per-PC: >=2 prefer global
	mask    uint64
	stats   Stats
}

// NewTournament returns a bimodal/gshare hybrid with a per-PC 2-bit
// chooser. Each component trains on every branch; the chooser trains only
// when the components disagree.
func NewTournament(indexBits, historyBits int) Predictor {
	ch := make([]uint8, 1<<uint(max(indexBits, 1)))
	for i := range ch {
		ch[i] = 2 // weakly prefer global
	}
	return &tournament{
		local:   NewBimodal(indexBits).(*bimodal),
		global:  NewGShare(indexBits, historyBits).(*gshare),
		chooser: ch,
		mask:    uint64(len(ch) - 1),
	}
}

func (t *tournament) Name() string { return string(Tournament) }

func (t *tournament) Stats() Stats { return t.stats }

func (t *tournament) Clone() Predictor {
	n := *t
	n.local = t.local.Clone().(*bimodal)
	n.global = t.global.Clone().(*gshare)
	n.chooser = slices.Clone(t.chooser)
	return &n
}

func (t *tournament) Predict(pc uint64, taken bool) bool {
	// Peek both components without their bookkeeping, then train them.
	lp := t.local.table[(pc>>2)&t.local.mask] >= 2
	gi := ((pc >> 2) ^ t.global.history) & t.global.mask
	gp := t.global.table[gi] >= 2

	choose := &t.chooser[(pc>>2)&t.mask]
	predicted := lp
	if *choose >= 2 {
		predicted = gp
	}
	if lp != gp {
		if gp == taken {
			inc(choose, 3)
		} else {
			dec(choose)
		}
	}
	t.local.Predict(pc, taken)
	t.global.Predict(pc, taken)

	t.stats.Lookups++
	if predicted != taken {
		t.stats.Misses++
	}
	return predicted
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
