package cache

// Prefetchers observe the demand access stream of a cache and propose
// line-aligned addresses to fetch ahead of demand. The paper's core uses a
// next-line prefetcher on the IL1 and IP-stride + next-line on the DL1;
// the LLC uses IP-stride + stream prefetchers (Tables I and II).

// Prefetcher proposes prefetch addresses from observed demand accesses.
type Prefetcher interface {
	// Name identifies the prefetcher.
	Name() string
	// Observe is called on every demand access with the instruction
	// address, the data address and whether the access missed. It returns
	// line-aligned addresses to prefetch (possibly none). The returned
	// slice is only valid until the next Observe call; callers that keep
	// proposals across observations must copy them.
	Observe(pc, addr uint64, miss bool) []uint64
}

// ---------------------------------------------------------------------------
// Next-line

type nextLinePrefetcher struct {
	onMissOnly bool
	buf        [1]uint64
}

// NewNextLine returns a next-line prefetcher. If onMissOnly is true it
// fires only on misses (the usual configuration for L1 caches).
func NewNextLine(onMissOnly bool) Prefetcher {
	return &nextLinePrefetcher{onMissOnly: onMissOnly}
}

func (p *nextLinePrefetcher) Name() string { return "next-line" }

func (p *nextLinePrefetcher) Observe(_, addr uint64, miss bool) []uint64 {
	if p.onMissOnly && !miss {
		return nil
	}
	p.buf[0] = AlignLine(addr) + LineSize
	return p.buf[:]
}

// ---------------------------------------------------------------------------
// IP-based stride

// ipStrideEntry tracks the last address and stride observed for one
// instruction address.
type ipStrideEntry struct {
	tag      uint64
	lastAddr uint64
	stride   int64
	conf     uint8 // 2-bit saturating confidence
}

const (
	ipStrideTableSize = 256
	ipStrideConfMax   = 3
	ipStrideThreshold = 2
)

type ipStridePrefetcher struct {
	table  [ipStrideTableSize]ipStrideEntry
	degree int
	buf    []uint64
}

// NewIPStride returns an IP-based stride prefetcher issuing up to degree
// prefetches ahead on a confident stride.
func NewIPStride(degree int) Prefetcher {
	if degree < 1 {
		degree = 1
	}
	return &ipStridePrefetcher{degree: degree, buf: make([]uint64, 0, degree)}
}

func (p *ipStridePrefetcher) Name() string { return "ip-stride" }

// clone copies the training table; the proposal buffer is per copy.
func (p *ipStridePrefetcher) clone() *ipStridePrefetcher {
	n := *p
	n.buf = make([]uint64, 0, p.degree)
	return &n
}

func (p *ipStridePrefetcher) Observe(pc, addr uint64, _ bool) []uint64 {
	idx := (pc ^ pc>>8) % ipStrideTableSize
	e := &p.table[idx]
	p.buf = p.buf[:0]
	if e.tag != pc {
		*e = ipStrideEntry{tag: pc, lastAddr: addr}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < ipStrideConfMax {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastAddr = addr
	if e.conf >= ipStrideThreshold && e.stride != 0 {
		next := int64(addr)
		for d := 0; d < p.degree; d++ {
			next += e.stride
			if next <= 0 {
				break
			}
			p.buf = append(p.buf, AlignLine(uint64(next)))
		}
	}
	return p.buf
}

// ---------------------------------------------------------------------------
// Stream

const (
	streamTableSize  = 16
	streamTrainHits  = 2
	streamFilterSize = 256 // buckets of the key filter (a power of two)
)

// The list links are uint8 slot indices, so the table must fit them.
var _ [256 - streamTableSize]struct{}

// streamPrefetcher stores its table as parallel strips so the match scan
// reads one dense 128-byte run of words:
//
//   - keys[i] holds the stream's lastLine+2 (0 = no stream), so
//     keys[i] == line+2 is a repeat access and keys[i] == line+1 extends
//     the stream, and an empty slot matches neither;
//   - clocks[i] is the entry's LRU clock (0 = empty slot);
//   - hits[i] counts consecutive sequential observations.
//
// Two derived structures make Observe O(1) without changing a result:
//
//   - filter counts the live keys per bucket key%streamFilterSize, and the
//     match scan runs only when the bucket of line+2 or of line+1 is
//     non-zero, that is, only when it could match. Keys are not unique
//     (observing lines 8, 10, 9, 10 leaves two slots keyed 12), so the
//     scan, not an index, still picks the first match in index order.
//   - older/newer link the live slots from the least recently used (lru)
//     to the most recently used (mru). Slots fill in index order and never
//     empty again, because keys are ≥ 2 and clocks ≥ 1, so the victim is
//     slot used while the table has room and the lru end after that. The
//     clocks are unique and increase, so that is the slot a scan for the
//     first empty slot, else the minimum clock, would pick.
type streamPrefetcher struct {
	keys   [streamTableSize]uint64
	clocks [streamTableSize]uint64
	hits   [streamTableSize]uint8
	clock  uint64

	filter       [streamFilterSize]uint8
	older, newer [streamTableSize]uint8
	mru, lru     uint8
	used         int

	degree int
	buf    []uint64
}

// NewStream returns a stream prefetcher tracking up to 16 ascending
// streams and prefetching degree lines ahead once trained.
func NewStream(degree int) Prefetcher {
	if degree < 1 {
		degree = 1
	}
	return &streamPrefetcher{degree: degree, buf: make([]uint64, 0, degree)}
}

func (p *streamPrefetcher) Name() string { return "stream" }

// clone copies the table with its filter and LRU list; the proposal
// buffer is per copy.
func (p *streamPrefetcher) clone() *streamPrefetcher {
	n := *p
	n.buf = make([]uint64, 0, p.degree)
	return &n
}

func (p *streamPrefetcher) Observe(_, addr uint64, _ bool) []uint64 {
	line := addr / LineSize
	p.clock++
	p.buf = p.buf[:0]

	// Find a stream this access extends (same line or the next one), the
	// first in index order. (&p.keys: ranging over the array value would
	// copy it each call.)
	rk := line + 2
	if p.filter[rk%streamFilterSize] != 0 || p.filter[(line+1)%streamFilterSize] != 0 {
		for i, k := range &p.keys {
			if k == rk { // repeat access: keep the stream warm
				p.clocks[i] = p.clock
				p.promote(uint8(i))
				return nil
			}
			if k == line+1 { // sequential: extend the stream
				p.filter[k%streamFilterSize]--
				p.filter[rk%streamFilterSize]++
				p.keys[i] = rk
				p.clocks[i] = p.clock
				p.promote(uint8(i))
				if p.hits[i] < streamTrainHits {
					p.hits[i]++
				}
				if p.hits[i] >= streamTrainHits {
					for d := 1; d <= p.degree; d++ {
						p.buf = append(p.buf, (line+uint64(d))*LineSize)
					}
				}
				return p.buf
			}
		}
	}

	// Allocate for a potential new stream: the next empty slot, else the
	// least recently used.
	var victim uint8
	if p.used < streamTableSize {
		victim = uint8(p.used)
		p.used++
		p.push(victim)
	} else {
		victim = p.lru
		p.filter[p.keys[victim]%streamFilterSize]--
		p.promote(victim)
	}
	p.filter[rk%streamFilterSize]++
	p.keys[victim] = rk
	p.clocks[victim] = p.clock
	p.hits[victim] = 0
	return nil
}

// push links slot i, not yet in the list, in at the mru end.
func (p *streamPrefetcher) push(i uint8) {
	p.older[i] = p.mru
	p.newer[p.mru] = i
	p.mru = i
}

// promote moves live slot i to the mru end of the list.
func (p *streamPrefetcher) promote(i uint8) {
	if i == p.mru {
		return
	}
	o, n := p.older[i], p.newer[i]
	if i == p.lru {
		p.lru = n
	} else {
		p.newer[o] = n
	}
	p.older[n] = o
	p.push(i)
}

// ---------------------------------------------------------------------------
// Composition

type multiPrefetcher struct {
	parts []Prefetcher
	buf   []uint64
}

// Combine merges several prefetchers into one; duplicate proposals are
// deduplicated per observation. The two pairings the simulators actually
// build (IP-stride + stream for LLCs, IP-stride + next-line for DL1s)
// get devirtualized combiners whose parts are called directly on the
// hot path; any other combination falls back to the generic form.
func Combine(parts ...Prefetcher) Prefetcher {
	if len(parts) == 2 {
		if a, ok := parts[0].(*ipStridePrefetcher); ok {
			switch b := parts[1].(type) {
			case *streamPrefetcher:
				return &StrideStreamPrefetcher{stride: a, stream: b}
			case *nextLinePrefetcher:
				return &StrideNextPrefetcher{stride: a, next: b}
			}
		}
	}
	return &multiPrefetcher{parts: parts}
}

func (p *multiPrefetcher) Name() string { return "combined" }

func (p *multiPrefetcher) Observe(pc, addr uint64, miss bool) []uint64 {
	p.buf = p.buf[:0]
	for _, part := range p.parts {
		p.buf = appendDedup(p.buf, part.Observe(pc, addr, miss))
	}
	return p.buf
}

// appendDedup appends the proposals not already present in buf.
func appendDedup(buf, proposals []uint64) []uint64 {
	for _, a := range proposals {
		dup := false
		for _, b := range buf {
			if a == b {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, a)
		}
	}
	return buf
}

// NewStrideStream builds the LLC pairing (IP-stride + stream, equal
// degrees) as its concrete type, so callers hold a devirtualized
// reference on their hot path.
func NewStrideStream(degree int) *StrideStreamPrefetcher {
	return Combine(NewIPStride(degree), NewStream(degree)).(*StrideStreamPrefetcher)
}

// NewStrideNext builds the DL1 pairing (IP-stride + next-line) as its
// concrete type (see NewStrideStream).
func NewStrideNext(degree int, onMissOnly bool) *StrideNextPrefetcher {
	return Combine(NewIPStride(degree), NewNextLine(onMissOnly)).(*StrideNextPrefetcher)
}

// StrideStreamPrefetcher is Combine(ip-stride, stream) with direct calls.
type StrideStreamPrefetcher struct {
	stride *ipStridePrefetcher
	stream *streamPrefetcher
	buf    []uint64
}

func (p *StrideStreamPrefetcher) Name() string { return "combined" }

// Clone returns an independent copy of the pairing's training state.
func (p *StrideStreamPrefetcher) Clone() *StrideStreamPrefetcher {
	return &StrideStreamPrefetcher{stride: p.stride.clone(), stream: p.stream.clone()}
}

func (p *StrideStreamPrefetcher) Observe(pc, addr uint64, miss bool) []uint64 {
	p.buf = appendDedup(p.buf[:0], p.stride.Observe(pc, addr, miss))
	p.buf = appendDedup(p.buf, p.stream.Observe(pc, addr, miss))
	return p.buf
}

// StrideNextPrefetcher is Combine(ip-stride, next-line) with direct calls.
type StrideNextPrefetcher struct {
	stride *ipStridePrefetcher
	next   *nextLinePrefetcher
	buf    []uint64
}

func (p *StrideNextPrefetcher) Name() string { return "combined" }

// Clone returns an independent copy of the pairing's training state.
func (p *StrideNextPrefetcher) Clone() *StrideNextPrefetcher {
	next := *p.next
	return &StrideNextPrefetcher{stride: p.stride.clone(), next: &next}
}

func (p *StrideNextPrefetcher) Observe(pc, addr uint64, miss bool) []uint64 {
	p.buf = appendDedup(p.buf[:0], p.stride.Observe(pc, addr, miss))
	p.buf = appendDedup(p.buf, p.next.Observe(pc, addr, miss))
	return p.buf
}

// None is a Prefetcher that never prefetches.
type None struct{}

// Name identifies the null prefetcher.
func (None) Name() string { return "none" }

// Observe always returns no prefetches.
func (None) Observe(uint64, uint64, bool) []uint64 { return nil }
