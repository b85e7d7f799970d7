package bpred

// Target prediction structures of Table I: the BTAC (branch target address
// cache, 7.5 kB), the indirect-branch target predictor (2 kB, a tagged
// path-history-indexed target table) and the 16-entry return address
// stack. Direction prediction says whether a branch is taken; these
// structures say where it goes, and a wrong target costs the same redirect
// penalty as a wrong direction.

// BTAC is a set-associative branch target address cache mapping branch PCs
// to their most recent target.
type BTAC struct {
	ways    int
	sets    int
	tags    []uint64 // 0 = empty (PCs are stored +1)
	targets []uint64
	lru     []uint64
	clock   uint64
	stats   Stats
}

// NewBTAC builds a BTAC with the given total entries and associativity.
// Entries is rounded up so that entries/ways is a power of two.
func NewBTAC(entries, ways int) *BTAC {
	if ways < 1 {
		ways = 1
	}
	if entries < ways {
		entries = ways
	}
	sets := nextPow2((entries + ways - 1) / ways)
	n := sets * ways
	return &BTAC{
		ways:    ways,
		sets:    sets,
		tags:    make([]uint64, n),
		targets: make([]uint64, n),
		lru:     make([]uint64, n),
	}
}

// DefaultBTAC approximates the paper's 7.5 kB BTAC: 512 entries, 4-way
// (512 × (tag+target) ≈ 7.5 kB with 46-bit tags and 64-bit targets
// truncated as in real hardware).
func DefaultBTAC() *BTAC { return NewBTAC(512, 4) }

// Stats returns lookup/miss counters. A miss is a lookup that returned no
// target or the wrong target.
func (b *BTAC) Stats() Stats { return b.stats }

// Predict returns the cached target for pc, with ok=false on a tag miss.
func (b *BTAC) Predict(pc uint64) (target uint64, ok bool) {
	set := int((pc >> 2) % uint64(b.sets))
	base := set * b.ways
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == pc+1 {
			b.clock++
			b.lru[base+w] = b.clock
			return b.targets[base+w], true
		}
	}
	return 0, false
}

// Update installs the observed target for pc, replacing the LRU way on a
// miss, and records whether the earlier prediction would have been
// correct.
func (b *BTAC) Update(pc, target uint64) {
	b.stats.Lookups++
	set := int((pc >> 2) % uint64(b.sets))
	base := set * b.ways
	victim := base
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.tags[i] == pc+1 {
			if b.targets[i] != target {
				b.stats.Misses++
			}
			b.targets[i] = target
			b.clock++
			b.lru[i] = b.clock
			return
		}
		if b.lru[i] < b.lru[victim] {
			victim = i
		}
	}
	b.stats.Misses++
	b.clock++
	b.tags[victim] = pc + 1
	b.targets[victim] = target
	b.lru[victim] = b.clock
}

// ---------------------------------------------------------------------------
// Indirect predictor

// Indirect predicts indirect-branch targets from the PC hashed with a
// short path history of recent targets (ITTAGE-lite: a single tagged
// table; the 2 kB budget of Table I).
type Indirect struct {
	tags    []uint32
	targets []uint64
	mask    uint64
	path    uint64
	stats   Stats
}

// NewIndirect builds an indirect predictor with 2^indexBits entries.
func NewIndirect(indexBits int) *Indirect {
	if indexBits < 1 {
		indexBits = 1
	}
	n := 1 << indexBits
	return &Indirect{
		tags:    make([]uint32, n),
		targets: make([]uint64, n),
		mask:    uint64(n - 1),
	}
}

// DefaultIndirect approximates the paper's 2 kB budget: 256 entries of
// tag+target.
func DefaultIndirect() *Indirect { return NewIndirect(8) }

// Stats returns lookup/miss counters.
func (i *Indirect) Stats() Stats { return i.stats }

func (i *Indirect) hash(pc uint64) (idx uint64, tag uint32) {
	// Multiplicative mixing spreads every path bit over the low index
	// bits; a plain shift would lose targets differing only in high bits.
	h := pc>>2 ^ (i.path*0x9E3779B97F4A7C15)>>32
	return h & i.mask, uint32((h>>16)&0xffff) + 1 // +1: 0 means empty
}

// Predict returns the predicted target for the indirect branch at pc.
func (i *Indirect) Predict(pc uint64) (target uint64, ok bool) {
	idx, tag := i.hash(pc)
	if i.tags[idx] == tag {
		return i.targets[idx], true
	}
	return 0, false
}

// Update trains the predictor with the observed target and folds the
// target into the path history.
func (i *Indirect) Update(pc, target uint64) {
	i.stats.Lookups++
	idx, tag := i.hash(pc)
	if i.tags[idx] != tag || i.targets[idx] != target {
		i.stats.Misses++
	}
	i.tags[idx] = tag
	i.targets[idx] = target
	// Bounded path history: only recent targets influence the hash, so a
	// stable target sequence reaches a stable set of table entries.
	i.path = (i.path<<2 ^ target>>4) & 0xffff
}

// ---------------------------------------------------------------------------
// Return address stack

// RAS is a fixed-depth return address stack with wrap-around overwrite on
// overflow, as in real hardware (Table I: 16 entries).
type RAS struct {
	stack []uint64
	top   int // index of the next free slot
	depth int // live entries, capped at len(stack)
	stats Stats
}

// NewRAS builds a return address stack with the given capacity.
func NewRAS(entries int) *RAS {
	if entries < 1 {
		entries = 1
	}
	return &RAS{stack: make([]uint64, entries)}
}

// DefaultRAS returns the Table I 16-entry stack.
func DefaultRAS() *RAS { return NewRAS(16) }

// Stats counts Pop operations (Lookups) and wrong pops (Misses).
func (r *RAS) Stats() Stats { return r.stats }

// Push records a call's return address. On overflow the oldest entry is
// silently overwritten.
func (r *RAS) Push(returnAddr uint64) {
	r.stack[r.top] = returnAddr
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the target of a return. actual is the true return address;
// the miss counter advances when the prediction is wrong (typically after
// stack overflow dropped the matching push).
func (r *RAS) Pop(actual uint64) (predicted uint64) {
	r.stats.Lookups++
	if r.depth > 0 {
		r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
		r.depth--
		predicted = r.stack[r.top]
	}
	if predicted != actual {
		r.stats.Misses++
	}
	return predicted
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.depth }
