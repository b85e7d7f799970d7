package cache

import (
	"fmt"
	"math/bits"
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

// lruPolicy keeps each set's recency order in one word, a nibble per
// way from the least recently used (nibble 0) to the most recently used
// (nibble ways-1). A word starts in way order (lruOrderInit cut to the
// set's ways), and a touch lifts one way's nibble to the top, so the
// ways no access has touched stay at the bottom in way order: the
// victim, the low nibble, is the lowest untouched way while the set has
// one, else the least recently touched way. A line turns valid only by
// a fill, which touches it, so the untouched ways are exactly the
// invalid ones. A nibble names at most 16 ways, so Attach refuses more;
// every shipped cache has 4, 8 or 16.
type lruPolicy struct {
	top   uint     // shift of the most recent nibble, 4·(ways-1)
	order []uint64 // per set
}

// lruOrderInit lists ways 0..15 least recent first.
const lruOrderInit = 0xFEDCBA9876543210

// NewLRUPolicy returns a least-recently-used policy.
func NewLRUPolicy() Policy { return &lruPolicy{} }

func (p *lruPolicy) Name() string { return string(LRU) }

func (p *lruPolicy) Attach(sets, ways int) error {
	if sets <= 0 || ways <= 0 || ways > 16 {
		return fmt.Errorf("lru: bad geometry %dx%d (at most 16 ways)", sets, ways)
	}
	p.top = uint(4 * (ways - 1))
	p.order = make([]uint64, sets)
	start := uint64(lruOrderInit) & (1<<(4*ways) - 1) // 16 ways: 1<<64 is 0
	for s := range p.order {
		p.order[s] = start
	}
	return nil
}

// touch makes way the most recently used of its set. The way's nibble
// is found by the zero-nibble test on order^way·0x1…1: the test can flag
// a nibble above a zero one, never below, and way occurs once below the
// unused high nibbles (which are 0 under 16 ways), so the lowest flag is
// way's nibble. The nibbles above it shift down one, and way goes on top.
func (p *lruPolicy) touch(set, way int) {
	const ones, highs = 0x1111111111111111, 0x8888888888888888
	r, w := p.order[set], uint64(way)
	x := r ^ w*ones
	s := uint(bits.TrailingZeros64((x-ones)&^x&highs)) & 60 // 4 × way's rank
	p.order[set] = r&(1<<s-1) | r>>s>>4<<s | w<<(p.top&63)
}

func (p *lruPolicy) OnHit(set, way int)  { p.touch(set, way) }
func (p *lruPolicy) OnMiss(int)          {}
func (p *lruPolicy) OnFill(set, way int) { p.touch(set, way) }

// Victim returns the low nibble of set's order: its least recent way.
func (p *lruPolicy) Victim(set int) int { return int(p.order[set] & 0xF) }

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
