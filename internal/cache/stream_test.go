package cache

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// refStream is the stream prefetcher as a plain table scan over per-slot
// LRU clocks: an in-order match scan, then a victim scan for the first
// empty slot, else the least recent clock. The indexed streamPrefetcher
// must agree with it on every call.
type refStream struct {
	keys   [streamTableSize]uint64
	clocks [streamTableSize]uint64
	hits   [streamTableSize]uint8
	clock  uint64
	degree int
	buf    []uint64
}

func (p *refStream) Observe(addr uint64) []uint64 {
	line := addr / LineSize
	p.clock++
	p.buf = p.buf[:0]
	rk := line + 2
	for i, k := range p.keys {
		if k == rk {
			p.clocks[i] = p.clock
			return nil
		}
		if k == line+1 {
			p.keys[i] = rk
			p.clocks[i] = p.clock
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
	// Packing (clock, index) into one word makes the victim scan a plain
	// min: an empty slot's key is its bare index, which undercuts every
	// real clock, and unique clocks break ties by index.
	const idxBits = 4 // log2(streamTableSize)
	best := ^uint64(0)
	for i, c := range p.clocks {
		if v := c<<idxBits | uint64(i); v < best {
			best = v
		}
	}
	victim := int(best & (streamTableSize - 1))
	p.keys[victim] = rk
	p.clocks[victim] = p.clock
	p.hits[victim] = 0
	return nil
}

// recencyOrder lists the reference's slots least recent first, as the
// indexed prefetcher's recency word holds them: empty slots (clock 0) in
// index order, then the live ones by clock.
func (p *refStream) recencyOrder() (order [streamTableSize]uint64) {
	for i := range order {
		order[i] = uint64(i)
	}
	slices.SortStableFunc(order[:], func(a, b uint64) int { return cmp.Compare(p.clocks[a], p.clocks[b]) })
	return order
}

// nibbles unpacks a recency word, nibble 0 first.
func nibbles(w uint64) (order [streamTableSize]uint64) {
	for i := range order {
		order[i] = w >> (4 * i) & 0xF
	}
	return order
}

// streamDiff replays addrs through the indexed prefetcher and the
// reference scan, comparing keys, hits, recency order and proposals
// after every call.
func streamDiff(t *testing.T, degree int, addrs []uint64) {
	t.Helper()
	s := NewStrideStream(degree).stream
	ref := &refStream{degree: max(degree, 1)}
	for n, a := range addrs {
		props := s.Observe(0, a, true)
		want := ref.Observe(a)
		got, wantOrder := nibbles(s.recency), ref.recencyOrder()
		if s.keys != ref.keys || s.hits != ref.hits || got != wantOrder || !slices.Equal(props, want) {
			t.Fatalf("call %d (addr %#x): got keys %v hits %v recency %v props %v; want %v %v %v %v",
				n, a, s.keys, s.hits, got, props, ref.keys, ref.hits, wantOrder, want)
		}
	}
}

// localStream draws n addresses from a few ascending streams with
// repeats, backward steps and jumps, so that keys collide, streams are
// evicted and the key index both hits and misses.
func localStream(rng *rand.Rand, n int) []uint64 {
	heads := make([]uint64, 1+rng.Intn(24))
	for i := range heads {
		heads[i] = uint64(rng.Intn(1 << 12))
	}
	out := make([]uint64, n)
	for i := range out {
		h := &heads[rng.Intn(len(heads))]
		switch r := rng.Intn(10); {
		case r < 6:
			*h++
		case r < 7:
			*h-- // can re-key a second slot to an existing key
		case r < 8:
			*h = uint64(rng.Intn(1 << 12))
		}
		out[i] = *h*LineSize + uint64(rng.Intn(LineSize))
	}
	return out
}

func TestStreamMatchesReferenceScan(t *testing.T) {
	// Lines 8, 10, 9, 10 leave two slots keyed 12: a live key is not
	// unique, and the match must stay the first in index order.
	dup := []uint64{8 * LineSize, 10 * LineSize, 9 * LineSize, 10 * LineSize, 11 * LineSize, 12 * LineSize}
	ref := &refStream{degree: 2}
	for _, a := range dup[:4] {
		ref.Observe(a)
	}
	if n := slices.Index(ref.keys[:], 12); n < 0 || slices.Index(ref.keys[n+1:], 12) < 0 {
		t.Fatalf("lines 8, 10, 9, 10 left keys %v, want two slots keyed 12", ref.keys)
	}
	streamDiff(t, 2, dup)

	// Duplicate keys that fall in one index bucket with other keys
	// (lines a streamIndexSize apart), then repeats and extensions of
	// each, so the bucket mask holds several slots at once.
	var shared []uint64
	for _, l := range []uint64{8, 10, 9, 10, 8 + streamIndexSize, 9 + streamIndexSize, 10, 10 + streamIndexSize, 11, 12, 11 + streamIndexSize} {
		shared = append(shared, l*LineSize)
	}
	streamDiff(t, 1, shared)

	// Promotes before the table fills: repeats and extensions of early
	// slots while empty slots remain, so live slots move above one
	// another while the empty ones stay below them in index order.
	early := []uint64{100, 200, 300, 100, 101, 200, 400, 300, 102, 500, 201, 103}
	for i := range early {
		early[i] *= LineSize
	}
	streamDiff(t, 2, early)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		addrs := localStream(rng, 1+rng.Intn(600))
		streamDiff(t, 1+rng.Intn(4), addrs)
	}
}

// FuzzStreamPrefetcher checks the indexed stream prefetcher against the
// reference scan. The input is a degree byte, an unused byte (kept so
// the corpus decodes as before) and a sequence of little-endian 16-bit
// line numbers.
func FuzzStreamPrefetcher(f *testing.F) {
	f.Add([]byte{2, 3, 8, 0, 10, 0, 9, 0, 10, 0, 11, 0})
	f.Add([]byte{1, 255, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1, 1, 2, 1, 3, 1})
	seq := []byte{4, 20}
	for i := 0; i < 40; i++ {
		seq = binary.LittleEndian.AppendUint16(seq, uint16(i*7%19+i/3))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		degree := int(data[0] % 5)
		addrs := make([]uint64, 0, len(data)/2)
		for b := data[2:]; len(b) >= 2; b = b[2:] {
			addrs = append(addrs, uint64(binary.LittleEndian.Uint16(b))*LineSize)
		}
		streamDiff(t, degree, addrs)
	})
}
