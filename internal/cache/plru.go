package cache

import "fmt"

// PLRU implements tree-based pseudo-LRU, the cheap LRU approximation used
// by many real LLCs. It is not part of the paper's case study; it ships
// as an ablation policy (how much of LRU's advantage over RND survives
// the tree approximation?). Associativity must be a power of two.

// PLRU is the policy name for tree pseudo-LRU.
const PLRU PolicyName = "PLRU"

type plruPolicy struct {
	ways int
	// bits holds ways-1 tree bits per set: bit 0 is the root; the
	// children of node i are 2i+1 and 2i+2. A bit of 0 points left.
	bits [][]bool
}

// NewPLRUPolicy returns a tree pseudo-LRU policy.
func NewPLRUPolicy() Policy { return &plruPolicy{} }

func (p *plruPolicy) Name() string { return string(PLRU) }

func (p *plruPolicy) Attach(sets, ways int) error {
	if sets <= 0 || ways <= 0 {
		return fmt.Errorf("plru: bad geometry %dx%d", sets, ways)
	}
	if ways&(ways-1) != 0 {
		return fmt.Errorf("plru: associativity %d is not a power of two", ways)
	}
	p.ways = ways
	p.bits = make([][]bool, sets)
	for i := range p.bits {
		p.bits[i] = make([]bool, ways-1)
	}
	return nil
}

// touch flips the tree bits on the path to way so they point away from
// it (the MRU promotion).
func (p *plruPolicy) touch(set, way int) {
	bits := p.bits[set]
	node := 0
	lo, hi := 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits[node] = true // point right, away from the touched half
			node = 2*node + 1
			hi = mid
		} else {
			bits[node] = false // point left
			node = 2*node + 2
			lo = mid
		}
	}
}

func (p *plruPolicy) OnHit(set, way int)  { p.touch(set, way) }
func (p *plruPolicy) OnMiss(int)          {}
func (p *plruPolicy) OnFill(set, way int) { p.touch(set, way) }

// Victim follows the tree bits to the pseudo-least-recently-used way.
func (p *plruPolicy) Victim(set int) int {
	bits := p.bits[set]
	node := 0
	lo, hi := 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if !bits[node] { // points left
			node = 2*node + 1
			hi = mid
		} else {
			node = 2*node + 2
			lo = mid
		}
	}
	return lo
}
