// Package cache implements set-associative caches with pluggable
// replacement policies (LRU, RANDOM, FIFO, DIP, DRRIP, SRRIP) and the
// hardware prefetcher pairings of the paper's configuration tables
// (IP-based stride with next-line for the DL1, with stream for the LLC).
//
// A Cache models state only (tags, dirtiness, replacement metadata);
// timing (latencies, MSHRs, buses) belongs to the uncore and core models
// that drive it.
package cache

import (
	"fmt"
	"math/bits"
)

// LineSize is the cache line size in bytes for every cache in the system.
const LineSize = 64

// line is one cache line's bookkeeping, packed into a single 32-bit
// word: the tag in the high 29 bits and the valid/dirty/prefetch flags
// in the low three. The prefetch bit lives in the line itself (rather
// than a parallel slice) and a whole 16-way set scans as one 64-byte
// strip — a single cache line of bookkeeping per lookup. The packing
// constrains addresses to < 2^(29+log2(LineSize*sets)) — at least 2^41
// for the smallest simulated cache, far above both the synthetic
// virtual address space and the bump-allocated physical one; FillMiss
// panics if an address ever exceeds it.
type line uint32

const (
	lineValid    line = 1 << 0
	lineDirty    line = 1 << 1
	linePref     line = 1 << 2 // filled by prefetch and not yet demanded
	lineTagShift      = 3
	lineTagMax        = 1 << (32 - lineTagShift) // first tag that does not fit
)

func (l line) tag() uint64 { return uint64(l) >> lineTagShift }
func (l line) valid() bool { return l&lineValid != 0 }
func (l line) dirty() bool { return l&lineDirty != 0 }

// lineKey builds the packed compare key of a valid line with the given
// tag; masking a line's dirty/pref bits off makes it directly comparable.
func lineKey(tag uint64) line { return line(tag<<lineTagShift) | lineValid }

// Stats counts cache events. Demand accesses only; prefetch fills are
// counted separately so MPKI reflects demand misses as in the paper.
type Stats struct {
	Accesses      uint64 // demand accesses
	Hits          uint64 // demand hits
	Misses        uint64 // demand misses
	Writebacks    uint64 // dirty evictions
	PrefetchFills uint64 // lines installed by prefetch
	PrefetchHits  uint64 // demand hits on prefetched-not-yet-touched lines
}

// MPK returns misses per kilo-event given an instruction count.
func (s Stats) MPK(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) * 1000 / float64(instructions)
}

// Cache is a set-associative, write-back, write-allocate cache.
type Cache struct {
	name     string
	sets     int
	ways     int
	setShift uint
	tagShift uint // precomputed log2(sets): tag = lineAddr >> tagShift
	setMask  uint64
	lines    []line // sets*ways, row-major by set
	policy   Policy
	lru      *lruPolicy   // policy devirtualized, when it is LRU
	addrObs  AddressAware // non-nil if the policy wants addresses
	stats    Stats
}

// AddressAware is an optional Policy extension: policies that key their
// metadata on the accessed address (e.g. SHiP's region signatures)
// implement it, and the cache calls ObserveAddr with the line address
// immediately before the OnHit/OnMiss/OnFill hook it belongs to.
type AddressAware interface {
	ObserveAddr(addr uint64)
}

// New builds a cache of the given total size in bytes and associativity,
// with the supplied replacement policy. Size must be a power-of-two
// multiple of ways*LineSize.
func New(name string, sizeBytes, ways int, policy Policy) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry", name)
	}
	lines := sizeBytes / LineSize
	if lines*LineSize != sizeBytes {
		return nil, fmt.Errorf("cache %s: size %d not a multiple of line size", name, sizeBytes)
	}
	sets := lines / ways
	if sets*ways != lines {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", name, lines, ways)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d sets is not a power of two", name, sets)
	}
	if err := policy.Attach(sets, ways); err != nil {
		return nil, fmt.Errorf("cache %s: %w", name, err)
	}
	c := &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(LineSize))),
		tagShift: uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		lines:    make([]line, sets*ways),
	}
	c.policy = policy
	c.addrObs, _ = policy.(AddressAware)
	// LRU (every L1, and the LLC in much of the campaign) gets its hooks
	// called directly: touch on hits and fills, nothing on misses.
	c.lru, _ = policy.(*lruPolicy)
	return c, nil
}

// MustNew is New for static configurations.
func MustNew(name string, sizeBytes, ways int, policy Policy) *Cache {
	c, err := New(name, sizeBytes, ways, policy)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * LineSize }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.setShift
	return int(lineAddr & c.setMask), lineAddr >> c.tagShift
}

// set returns the ways of one set as a sub-slice, which lets the per-way
// scans run with a single bounds check.
func (c *Cache) set(set int) []line {
	base := set * c.ways
	return c.lines[base : base+c.ways]
}

// Probe reports whether addr is present without updating replacement
// state or statistics.
func (c *Cache) Probe(addr uint64) bool { return c.Way(addr) >= 0 }

// Way returns the way holding addr, or -1 if it is absent, without
// updating replacement state or statistics.
func (c *Cache) Way(addr uint64) int {
	set, tag := c.index(addr)
	return find(c.set(set), lineKey(tag))
}

// find returns the way of the set holding the line keyed want, or -1.
// A tag sits in at most one way, so the scan visits every way and keeps
// the match instead of stopping at it: an L1 set of 4 or 8 ways costs
// less scanned whole than one mispredicted early exit.
func find(ways []line, want line) int {
	way := -1
	for w, l := range ways {
		if l&^(lineDirty|linePref) == want {
			way = w
		}
	}
	return way
}

// Access performs a demand access. On a hit it updates replacement state
// and returns hit=true. On a miss it updates miss statistics and the
// policy's miss hook but does NOT fill; the caller fills after the miss
// has been serviced (see FillMiss).
func (c *Cache) Access(addr uint64, write bool) (hit bool) {
	set, tag := c.index(addr)
	return c.access(addr, set, find(c.set(set), lineKey(tag)), write)
}

// AccessWay is Access for a caller that tracks where lines sit: way is
// the way holding addr (as Way or FillMiss reported it), or -1 if addr
// is absent. It skips the set scan and otherwise does what Access does.
func (c *Cache) AccessWay(addr uint64, way int, write bool) (hit bool) {
	set, _ := c.index(addr)
	return c.access(addr, set, way, write)
}

// access is the demand access of addr, found in way of set (-1: absent).
func (c *Cache) access(addr uint64, set, way int, write bool) bool {
	c.stats.Accesses++
	if c.addrObs != nil {
		c.addrObs.ObserveAddr(addr)
	}
	if way < 0 {
		c.miss(set)
		return false
	}
	ways := c.set(set)
	l := ways[way]
	c.stats.Hits++
	c.stats.PrefetchHits += uint64(l&linePref) / uint64(linePref)
	ways[way] = l&^linePref | dirtyIf(write)
	if c.lru != nil {
		c.lru.touch(set, way)
	} else {
		c.policy.OnHit(set, way)
	}
	return true
}

// miss records a demand miss in set.
func (c *Cache) miss(set int) {
	c.stats.Misses++
	if c.lru == nil {
		c.policy.OnMiss(set)
	}
}

// Eviction describes the line displaced by a fill.
type Eviction struct {
	Valid bool   // an actual line was evicted
	Dirty bool   // it requires a writeback
	Addr  uint64 // its line-aligned address
	Way   int    // the way now holding the filled line
}

// dirtyIf returns the dirty flag if write is set, else no flag.
func dirtyIf(write bool) line {
	if write {
		return lineDirty
	}
	return 0
}

// Fill installs addr, evicting a victim if the set is full, unless it
// is already present (say, a prefetch raced a demand fill): a present
// line keeps its way and replacement state, and a write dirties it.
// write marks the new line dirty (write-allocate). prefetch marks the
// fill as prefetch-initiated for statistics. The returned Eviction tells
// the caller whether a writeback must be modelled.
func (c *Cache) Fill(addr uint64, write, prefetch bool) Eviction {
	if w := c.Way(addr); w >= 0 {
		set, _ := c.index(addr)
		c.set(set)[w] |= dirtyIf(write)
		return Eviction{Way: w}
	}
	return c.FillMiss(addr, write, prefetch)
}

// FillMiss is Fill for an addr known to be absent: the caller's Access
// missed, or Way or Probe found nothing, with no fill of the set since.
// It skips the scan for a present line.
func (c *Cache) FillMiss(addr uint64, write, prefetch bool) Eviction {
	set, tag := c.index(addr)
	if tag >= lineTagMax {
		panic(fmt.Sprintf("cache %s: address %#x exceeds the packed-tag range", c.name, addr))
	}
	if c.addrObs != nil {
		c.addrObs.ObserveAddr(addr)
	}
	ways := c.set(set)
	var way int
	if c.lru != nil {
		// The first invalid way while the set has one (the untouched ways
		// are the invalid ones), else the least recently used.
		way = c.lru.Victim(set)
	} else {
		way = -1
		for w := range ways {
			if !ways[w].valid() {
				way = w
				break
			}
		}
		if way < 0 {
			way = c.policy.Victim(set)
			if way < 0 || way >= c.ways {
				panic(fmt.Sprintf("cache %s: policy %s returned invalid victim %d", c.name, c.policy.Name(), way))
			}
		}
	}
	ev := Eviction{Way: way}
	if v := ways[way]; v.valid() {
		ev.Valid, ev.Dirty, ev.Addr = true, v.dirty(), c.lineAddr(set, v.tag())
		c.stats.Writebacks += uint64(v&lineDirty) / uint64(lineDirty)
	}
	nl := lineKey(tag) | dirtyIf(write)
	if prefetch {
		nl |= linePref
		c.stats.PrefetchFills++
	}
	ways[way] = nl
	if c.lru != nil {
		c.lru.touch(set, way)
	} else {
		c.policy.OnFill(set, way)
	}
	return ev
}

// lineAddr reconstructs the line-aligned address of a (set, tag) pair.
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return (tag<<c.tagShift | uint64(set)) << c.setShift
}

// AlignLine returns addr rounded down to its cache line.
func AlignLine(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }
