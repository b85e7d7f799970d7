package cache

import "math/bits"

// The paper's configuration tables (Tables I and II) give each cache its
// prefetchers: the core's IL1 prefetches the next line (inline in package
// cpu), the DL1 pairs IP-stride with next-line-on-miss (NewStrideNext) and
// the LLC pairs IP-stride with stream (NewStrideStream). Each pairing is
// one concrete type whose parts are called directly.
//
// Every Observe takes the instruction address, the data address and
// whether the access missed, and returns line-aligned addresses to
// prefetch (possibly none). The returned slice is only valid until the
// next Observe call; callers that keep proposals across observations
// must copy them.

// ---------------------------------------------------------------------------
// Next-line

// nextLinePrefetcher proposes the line after a missing access.
type nextLinePrefetcher struct {
	buf [1]uint64
}

func (p *nextLinePrefetcher) Observe(_, addr uint64, miss bool) []uint64 {
	if !miss {
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

// newIPStride returns an IP-based stride prefetcher issuing up to degree
// prefetches ahead on a confident stride.
func newIPStride(degree int) *ipStridePrefetcher {
	if degree < 1 {
		degree = 1
	}
	return &ipStridePrefetcher{degree: degree, buf: make([]uint64, 0, degree)}
}

func (p *ipStridePrefetcher) Observe(pc, addr uint64, _ bool) []uint64 {
	idx := (pc ^ pc>>8) % ipStrideTableSize
	e := &p.table[idx]
	p.buf = p.buf[:0]
	if e.tag != pc {
		*e = ipStrideEntry{tag: pc, lastAddr: addr}
		return nil
	}
	// A repeated nonzero stride gains confidence, any other resets it;
	// either way the entry keeps the new stride (a repeat leaves it as
	// it was). Confidence reaches the threshold only on repeats, so a
	// confident stride is nonzero.
	stride := int64(addr) - int64(e.lastAddr)
	conf := min(e.conf+1, ipStrideConfMax)
	if stride != e.stride || stride == 0 {
		conf = 0
	}
	e.stride, e.conf, e.lastAddr = stride, conf, addr
	if conf >= ipStrideThreshold {
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
	streamTableSize = 16
	streamTrainHits = 2
	streamIndexSize = 1024 // buckets of the key index (a power of two)
	// streamRecencyInit lists slots 0..15 least recent first: every slot
	// starts empty, and empty slots are taken in index order.
	streamRecencyInit = 0xFEDCBA9876543210
)

// The index holds one bit per slot, and the recency word one nibble.
var _ [16 - streamTableSize]struct{}
var _ [streamTableSize - 16]struct{}

// streamPrefetcher keeps, per slot, its key and its hit count:
//
//   - keys[i] holds the stream's lastLine+2 (0 = no stream), so
//     keys[i] == line+2 is a repeat access and keys[i] == line+1 extends
//     the stream, and an empty slot matches neither;
//   - hits[i] counts consecutive sequential observations.
//
// Two derived structures make Observe O(1):
//
//   - index[b] is the mask of the live slots whose key falls in bucket
//     key%streamIndexSize. A match is in the bucket of line+2 or of
//     line+1, so Observe checks only the slots of those two masks, in
//     index order. Keys are not unique (observing lines 8, 10, 9, 10
//     leaves two slots keyed 12), and the first match in index order is
//     the one a full scan of the table finds.
//   - recency lists the slots, one nibble each, from the least recently
//     used (nibble 0) to the most recently used (nibble 15). It starts as
//     streamRecencyInit, so the empty slots sit below the live ones in
//     index order. Slots never empty again (keys are ≥ 2), so nibble 0 is
//     the slot a scan for the first empty slot, else the least recent
//     one, would pick. Allocating it rotates it to the top; a promote
//     lifts one slot's nibble to the top.
type streamPrefetcher struct {
	keys    [streamTableSize]uint64
	hits    [streamTableSize]uint8
	recency uint64
	index   [streamIndexSize]uint16

	degree int
	buf    []uint64
}

// newStream returns a stream prefetcher tracking up to 16 ascending
// streams and prefetching degree lines ahead once trained.
func newStream(degree int) *streamPrefetcher {
	if degree < 1 {
		degree = 1
	}
	return &streamPrefetcher{recency: streamRecencyInit, degree: degree, buf: make([]uint64, 0, degree)}
}

func (p *streamPrefetcher) Observe(_, addr uint64, _ bool) []uint64 {
	line := addr / LineSize
	rk := line + 2

	// Find a stream this access extends (same line or the next one), the
	// first in index order.
	for m := p.index[rk%streamIndexSize] | p.index[(line+1)%streamIndexSize]; m != 0; m &= m - 1 {
		i := uint64(bits.TrailingZeros16(m))
		switch p.keys[i] {
		case rk: // repeat access: keep the stream warm
			p.promote(i)
			return nil
		case line + 1: // sequential: extend the stream
			p.rekey(i, rk)
			p.promote(i)
			if p.hits[i] < streamTrainHits {
				p.hits[i]++
			}
			if p.hits[i] < streamTrainHits {
				return nil
			}
			p.buf = p.buf[:0]
			for d := 1; d <= p.degree; d++ {
				p.buf = append(p.buf, (line+uint64(d))*LineSize)
			}
			return p.buf
		}
	}

	// Allocate for a potential new stream: the least recent slot, which
	// is the next empty one while the table has room.
	victim := p.recency & 0xF
	p.recency = p.recency>>4 | victim<<60
	p.rekey(victim, rk)
	p.hits[victim] = 0
	return nil
}

// rekey sets slot i's key to k, keeping the index in step. An empty
// slot's bit is in no bucket, so clearing it from key 0's is a no-op.
func (p *streamPrefetcher) rekey(i, k uint64) {
	p.index[p.keys[i]%streamIndexSize] &^= 1 << i
	p.index[k%streamIndexSize] |= 1 << i
	p.keys[i] = k
}

// promote moves slot i to the most recent end of the recency word. The
// slot's nibble is found by the zero-nibble test on recency^i·0x1…1:
// the test can flag a nibble above a zero one, never below, and i
// occurs once, so the lowest flag is i's nibble.
func (p *streamPrefetcher) promote(i uint64) {
	const ones, highs = 0x1111111111111111, 0x8888888888888888
	x := p.recency ^ i*ones
	s := uint(bits.TrailingZeros64((x-ones)&^x&highs)) &^ 3 // 4 × i's nibble
	low := p.recency & (1<<s - 1)
	p.recency = low | p.recency>>(s+4)<<s | i<<60
}

// ---------------------------------------------------------------------------
// Pairings

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

// NewStrideStream builds the LLC pairing: IP-stride and stream, each
// prefetching degree lines ahead.
func NewStrideStream(degree int) *StrideStreamPrefetcher {
	return &StrideStreamPrefetcher{stride: newIPStride(degree), stream: newStream(degree)}
}

// NewStrideNext builds the DL1 pairing: IP-stride, degree lines ahead,
// and next-line on misses.
func NewStrideNext(degree int) *StrideNextPrefetcher {
	return &StrideNextPrefetcher{stride: newIPStride(degree), next: &nextLinePrefetcher{}}
}

// StrideStreamPrefetcher is the LLC's IP-stride + stream pairing.
type StrideStreamPrefetcher struct {
	stride *ipStridePrefetcher
	stream *streamPrefetcher
	buf    []uint64
}

// Observe merges the two parts' proposals, the stride's first, without
// duplicates; most calls have none, and skip the merge. Neither part
// reads miss: the pairing trains on every demand access alike. The
// parameter stays for callers that pass the access outcome.
func (p *StrideStreamPrefetcher) Observe(pc, addr uint64, miss bool) []uint64 {
	a := p.stride.Observe(pc, addr, miss)
	b := p.stream.Observe(pc, addr, miss)
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	p.buf = appendDedup(p.buf[:0], a)
	p.buf = appendDedup(p.buf, b)
	return p.buf
}

// StrideNextPrefetcher is the DL1's IP-stride + next-line-on-miss pairing.
type StrideNextPrefetcher struct {
	stride *ipStridePrefetcher
	next   *nextLinePrefetcher
	buf    []uint64
}

// Observe merges the two parts' proposals, the stride's first, without
// duplicates; most calls have none, and skip the merge.
func (p *StrideNextPrefetcher) Observe(pc, addr uint64, miss bool) []uint64 {
	a := p.stride.Observe(pc, addr, miss)
	b := p.next.Observe(pc, addr, miss)
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	p.buf = appendDedup(p.buf[:0], a)
	p.buf = appendDedup(p.buf, b)
	return p.buf
}
