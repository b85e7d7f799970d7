package bpred

// TAGE (TAgged GEometric history length) branch predictor, after Seznec &
// Michaud, "A case for (partially) TAgged GEometric history length branch
// prediction" (JILP 2006). This is the predictor named in Table I of the
// paper ("TAGE 4 kB").
//
// Structure: a bimodal base predictor plus NumTables tagged components.
// Component i is indexed by a hash of the PC and the last L(i) outcome
// bits, with L(i) growing geometrically. Each tagged entry carries a
// partial tag, a 3-bit signed counter and a 2-bit usefulness counter. The
// prediction comes from the matching component with the longest history
// (the provider); the next matching component (or the base) is the
// alternate. On a misprediction, a new entry is allocated in a randomly
// chosen longer-history component whose victim entry is not useful.

// TAGEConfig sizes a TAGE predictor.
type TAGEConfig struct {
	BaseBits   int    // log2 of bimodal base entries
	TableBits  int    // log2 of entries per tagged table
	TagBits    int    // partial tag width (per tagged table)
	Histories  []int  // history length per tagged table, ascending
	UResetPerd uint64 // gracefully age usefulness every this many branches
}

// DefaultTAGEConfig matches the paper's 4 kB storage budget: a 2 k-entry
// bimodal base (0.5 kB) plus four 512-entry tagged tables with 9-bit tags
// (~3.5 kB), with geometric histories 5, 15, 44, 130.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseBits:   11,
		TableBits:  9,
		TagBits:    9,
		Histories:  []int{5, 15, 44, 130},
		UResetPerd: 1 << 18,
	}
}

// tageEntry is one tagged-component entry.
type tageEntry struct {
	tag uint16
	ctr int8  // signed 3-bit: -4..3, >=0 predicts taken
	u   uint8 // 2-bit usefulness
}

// foldedHistory incrementally maintains a compressed (folded) view of the
// last origLen history bits in compLen bits, as in the TAGE hardware.
type foldedHistory struct {
	comp    uint64
	compLen uint
	origLen uint
	outPos  uint // position where the outgoing bit re-enters the fold
}

func newFolded(origLen, compLen int) foldedHistory {
	return foldedHistory{
		compLen: uint(compLen),
		origLen: uint(origLen),
		outPos:  uint(origLen % compLen),
	}
}

// update folds in the newest history bit and folds out the bit leaving the
// history window (oldest holds the outcome from origLen branches ago).
func (f *foldedHistory) update(newest, oldest uint64) {
	f.comp = f.comp<<1 | newest
	f.comp ^= oldest << f.outPos
	f.comp ^= f.comp >> f.compLen
	f.comp &= 1<<f.compLen - 1
}

type tageTable struct {
	entries []tageEntry
	idxFold foldedHistory
	tagFold [2]foldedHistory // two folds decorrelate tag from index
	histLen int
	mask    uint64
	tagMask uint16
}

// Tage implements Predictor.
type Tage struct {
	cfg    TAGEConfig
	base   []uint8 // bimodal base, 2-bit counters
	bmask  uint64
	tables []*tageTable

	// Global history as a ring of outcome bits, long enough for the
	// longest component history.
	ghist []uint8
	gpos  int

	useAltOnNA int8 // 4-bit counter: prefer altpred for fresh entries
	rand       lfsr
	branches   uint64
	stats      Stats
}

// NewTAGE builds a TAGE predictor from cfg.
func NewTAGE(cfg TAGEConfig) *Tage {
	if len(cfg.Histories) == 0 {
		panic("bpred: TAGE needs at least one tagged table")
	}
	for i := 1; i < len(cfg.Histories); i++ {
		if cfg.Histories[i] <= cfg.Histories[i-1] {
			panic("bpred: TAGE histories must be ascending")
		}
	}
	base := make([]uint8, 1<<cfg.BaseBits)
	for i := range base {
		base[i] = 2
	}
	t := &Tage{
		cfg:   cfg,
		base:  base,
		bmask: uint64(len(base) - 1),
		ghist: make([]uint8, nextPow2(cfg.Histories[len(cfg.Histories)-1]+1)),
		rand:  newLFSR(),
	}
	for _, hl := range cfg.Histories {
		tab := &tageTable{
			entries: make([]tageEntry, 1<<cfg.TableBits),
			idxFold: newFolded(hl, cfg.TableBits),
			histLen: hl,
			mask:    uint64(1<<cfg.TableBits - 1),
			tagMask: uint16(1<<cfg.TagBits - 1),
		}
		tab.tagFold[0] = newFolded(hl, cfg.TagBits)
		tab.tagFold[1] = newFolded(hl, cfg.TagBits-1)
		t.tables = append(t.tables, tab)
	}
	return t
}

// NewDefaultTAGE builds the 4 kB Table I configuration.
func NewDefaultTAGE() *Tage { return NewTAGE(DefaultTAGEConfig()) }

// Name identifies the predictor.
func (t *Tage) Name() string { return string(TAGE) }

// Stats returns lookup/miss counters.
func (t *Tage) Stats() Stats { return t.stats }

// index computes table i's index for pc.
func (t *Tage) index(tab *tageTable, pc uint64) uint64 {
	h := pc >> 2
	return (h ^ h>>uint(t.cfg.TableBits) ^ uint64(tab.idxFold.comp)) & tab.mask
}

// tag computes table i's partial tag for pc.
func (t *Tage) tag(tab *tageTable, pc uint64) uint16 {
	h := pc >> 2
	return uint16(h^uint64(tab.tagFold[0].comp)^uint64(tab.tagFold[1].comp)<<1) & tab.tagMask
}

// Predict implements Predictor.
func (t *Tage) Predict(pc uint64, taken bool) bool {
	// Component lookups.
	type hit struct {
		table int
		idx   uint64
	}
	provider, alt := hit{table: -1}, hit{table: -1}
	var provPred, altPred bool
	for i := len(t.tables) - 1; i >= 0; i-- {
		tab := t.tables[i]
		idx := t.index(tab, pc)
		if tab.entries[idx].tag == t.tag(tab, pc) {
			if provider.table < 0 {
				provider = hit{i, idx}
				provPred = tab.entries[idx].ctr >= 0
			} else {
				alt = hit{i, idx}
				altPred = tab.entries[idx].ctr >= 0
				break
			}
		}
	}
	basePred := t.base[(pc>>2)&t.bmask] >= 2
	if alt.table < 0 {
		altPred = basePred
	}

	predicted := basePred
	weakProvider := false
	if provider.table >= 0 {
		e := &t.tables[provider.table].entries[provider.idx]
		// A "newly allocated" entry is weak (ctr in {-1,0}) and unproven
		// (u == 0); if experience says the alternate does better on such
		// entries, use it.
		weakProvider = e.u == 0 && (e.ctr == 0 || e.ctr == -1)
		if weakProvider && t.useAltOnNA >= 0 {
			predicted = altPred
		} else {
			predicted = provPred
		}
	}

	t.update(pc, taken, provider.table, provider.idx, provPred, altPred, weakProvider, predicted)

	t.stats.Lookups++
	if predicted != taken {
		t.stats.Misses++
	}
	return predicted
}

// update trains counters, manages usefulness and allocates on
// mispredictions, then pushes the outcome into the global history.
func (t *Tage) update(pc uint64, taken bool, provTable int, provIdx uint64, provPred, altPred, weakProvider, predicted bool) {
	// useAltOnNA learns whether fresh entries should be trusted.
	if provTable >= 0 && weakProvider && provPred != altPred {
		if altPred == taken {
			if t.useAltOnNA < 7 {
				t.useAltOnNA++
			}
		} else if t.useAltOnNA > -8 {
			t.useAltOnNA--
		}
	}

	if provTable >= 0 {
		e := &t.tables[provTable].entries[provIdx]
		// Usefulness: the provider was useful if it disagreed with the
		// alternate and was right.
		if provPred != altPred {
			if provPred == taken {
				inc(&e.u, 3)
			} else {
				dec(&e.u)
			}
		}
		ctrUpdate(&e.ctr, taken)
	} else {
		b := &t.base[(pc>>2)&t.bmask]
		if taken {
			inc(b, 3)
		} else {
			dec(b)
		}
	}

	// Allocate in a longer-history component on a misprediction (unless
	// the provider is the longest table already).
	if predicted != taken && provTable < len(t.tables)-1 {
		t.allocate(pc, taken, provTable)
	}

	// Graceful usefulness aging.
	t.branches++
	if t.cfg.UResetPerd > 0 && t.branches%t.cfg.UResetPerd == 0 {
		for _, tab := range t.tables {
			for i := range tab.entries {
				tab.entries[i].u >>= 1
			}
		}
	}

	t.pushHistory(taken)
}

// allocate tries to claim an entry in a component with a longer history
// than the provider. Among candidates with u == 0, a pseudo-random one is
// chosen (biased toward shorter histories, as in the reference design);
// if none is free, all candidate u counters are decremented.
func (t *Tage) allocate(pc uint64, taken bool, provTable int) {
	start := provTable + 1
	// Pseudo-randomly skip forward so allocation spreads across tables.
	if n := len(t.tables) - start; n > 1 {
		r := t.rand.next()
		if r&1 == 0 { // P(skip)=1/2 toward longer histories
			start++
			if n > 2 && r&2 == 0 {
				start++
			}
		}
	}
	for i := start; i < len(t.tables); i++ {
		tab := t.tables[i]
		idx := t.index(tab, pc)
		if e := &tab.entries[idx]; e.u == 0 {
			e.tag = t.tag(tab, pc)
			e.u = 0
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	for i := provTable + 1; i < len(t.tables); i++ {
		tab := t.tables[i]
		dec(&tab.entries[t.index(tab, pc)].u)
	}
}

// pushHistory shifts the outcome into the global history ring and updates
// every folded register.
func (t *Tage) pushHistory(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	t.gpos = (t.gpos + 1) % len(t.ghist)
	t.ghist[t.gpos] = uint8(bit)
	for _, tab := range t.tables {
		oldest := uint64(t.ghist[(t.gpos-tab.histLen+len(t.ghist)*2)%len(t.ghist)])
		tab.idxFold.update(bit, oldest)
		tab.tagFold[0].update(bit, oldest)
		tab.tagFold[1].update(bit, oldest)
	}
}

// ctrUpdate moves a signed 3-bit counter toward the outcome.
func ctrUpdate(c *int8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > -4 {
		*c--
	}
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
