package cache

import (
	"fmt"
	"math/rand"
)

// Policy is a replacement policy attached to one cache. Implementations
// keep per-set metadata; the cache calls the hooks on demand hits, demand
// misses and fills. Victim is only called when every way of the set is
// valid.
type Policy interface {
	// Name identifies the policy ("LRU", "DIP", ...).
	Name() string
	// Attach sizes the metadata. It is called exactly once, by New.
	Attach(sets, ways int) error
	// OnHit records a demand hit on (set, way).
	OnHit(set, way int)
	// OnMiss records a demand miss in set (used by set-dueling policies).
	OnMiss(set int)
	// Victim selects the way to evict from a full set.
	Victim(set int) int
	// OnFill records that a new line was installed at (set, way).
	OnFill(set, way int)
}

// PolicyName enumerates the shipped policies.
type PolicyName string

// The five policies compared in the paper, plus SRRIP which DRRIP builds
// on and which is useful for ablations.
const (
	LRU    PolicyName = "LRU"
	Random PolicyName = "RND"
	FIFO   PolicyName = "FIFO"
	DIP    PolicyName = "DIP"
	DRRIP  PolicyName = "DRRIP"
	SRRIP  PolicyName = "SRRIP"
)

// PaperPolicies lists the five policies of the paper's case study, in the
// paper's order.
func PaperPolicies() []PolicyName {
	return []PolicyName{LRU, Random, FIFO, DIP, DRRIP}
}

// NewPolicy constructs a policy by name. seed feeds policies that need
// randomness (RND, and the BIP/BRRIP throttles of DIP/DRRIP).
func NewPolicy(name PolicyName, seed int64) (Policy, error) {
	switch name {
	case LRU:
		return NewLRUPolicy(), nil
	case Random:
		return NewRandomPolicy(seed), nil
	case FIFO:
		return NewFIFOPolicy(), nil
	case DIP:
		return NewDIPPolicy(seed), nil
	case DRRIP:
		return NewDRRIPPolicy(seed), nil
	case SRRIP:
		return NewSRRIPPolicy(), nil
	case PLRU:
		return NewPLRUPolicy(), nil
	case SHIP:
		return NewSHIPPolicy(), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q", name)
}

// MustNewPolicy is NewPolicy for known-valid names.
func MustNewPolicy(name PolicyName, seed int64) Policy {
	p, err := NewPolicy(name, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// ---------------------------------------------------------------------------
// LRU

// lruPolicy tracks a global use counter per line; the victim is the line
// with the smallest stamp. Touches vastly outnumber victim selections
// (every hit touches; only evictions scan), so the stamp write is the
// operation to keep cheap.
type lruPolicy struct {
	ways   int
	clock  uint64
	stamps []uint64
}

// NewLRUPolicy returns a least-recently-used policy.
func NewLRUPolicy() Policy { return &lruPolicy{} }

func (p *lruPolicy) Name() string { return string(LRU) }

func (p *lruPolicy) Attach(sets, ways int) error {
	if sets <= 0 || ways <= 0 {
		return fmt.Errorf("lru: bad geometry %dx%d", sets, ways)
	}
	p.ways = ways
	p.stamps = make([]uint64, sets*ways)
	return nil
}

func (p *lruPolicy) touch(set, way int) {
	p.clock++
	p.stamps[set*p.ways+way] = p.clock
}

func (p *lruPolicy) OnHit(set, way int)  { p.touch(set, way) }
func (p *lruPolicy) OnMiss(int)          {}
func (p *lruPolicy) OnFill(set, way int) { p.touch(set, way) }

func (p *lruPolicy) Victim(set int) int {
	base := set * p.ways
	best, bestStamp := 0, p.stamps[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamps[base+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Random

type randomPolicy struct {
	ways int
	rng  *rand.Rand
}

// NewRandomPolicy returns a policy that evicts a uniformly random way.
func NewRandomPolicy(seed int64) Policy {
	return &randomPolicy{rng: rand.New(rand.NewSource(seed))}
}

func (p *randomPolicy) Name() string { return string(Random) }

func (p *randomPolicy) Attach(sets, ways int) error {
	if sets <= 0 || ways <= 0 {
		return fmt.Errorf("rnd: bad geometry %dx%d", sets, ways)
	}
	p.ways = ways
	return nil
}

func (p *randomPolicy) OnHit(int, int)  {}
func (p *randomPolicy) OnMiss(int)      {}
func (p *randomPolicy) OnFill(int, int) {}
func (p *randomPolicy) Victim(int) int  { return p.rng.Intn(p.ways) }

// ---------------------------------------------------------------------------
// FIFO

type fifoPolicy struct {
	ways   int
	clock  uint64
	stamps []uint64 // fill order; hits do not refresh
}

// NewFIFOPolicy returns a first-in-first-out policy.
func NewFIFOPolicy() Policy { return &fifoPolicy{} }

func (p *fifoPolicy) Name() string { return string(FIFO) }

func (p *fifoPolicy) Attach(sets, ways int) error {
	if sets <= 0 || ways <= 0 {
		return fmt.Errorf("fifo: bad geometry %dx%d", sets, ways)
	}
	p.ways = ways
	p.stamps = make([]uint64, sets*ways)
	return nil
}

func (p *fifoPolicy) OnHit(int, int) {}
func (p *fifoPolicy) OnMiss(int)     {}

func (p *fifoPolicy) OnFill(set, way int) {
	p.clock++
	p.stamps[set*p.ways+way] = p.clock
}

func (p *fifoPolicy) Victim(set int) int {
	base := set * p.ways
	best, bestStamp := 0, p.stamps[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamps[base+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}
