package trace

// Binary trace serialisation, standing in for the SimpleScalar EIO traces
// the paper generates with Zesto ([18]). The format is a compact
// delta/varint encoding: ~3-4 bytes per µop instead of the 24 in memory,
// so a full 22-benchmark suite fits comfortably on disk and model
// building can skip regeneration.
//
// Layout (all integers are unsigned varints unless noted):
//
//	magic "MCBT" | version | name length | name bytes | op count
//	per op: tag byte | [pc delta] | [addr delta] | [iline delta] | deps
//
// The tag byte packs the op kind (3 bits), the branch outcome, the
// indirect flag and "dependency present" bits. PC, Addr and ILine are
// delta-encoded (zigzag) against the previous op, which makes the hot
// code-walk and stride patterns nearly free. A trailing FNV-1a checksum
// over the payload detects truncation and corruption.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

const (
	traceMagic   = "MCBT"
	traceVersion = 1
)

// tag byte layout.
const (
	tagKindMask = 0x07
	tagTaken    = 0x08
	tagIndirect = 0x10
	tagHasDep1  = 0x20
	tagHasDep2  = 0x40
)

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// pcClass buckets op kinds into PC delta contexts: memory ops use stable
// per-pattern PCs, control ops use branch/call-site PCs, everything else
// walks the code segment.
func pcClass(k Kind) int {
	switch k {
	case Load, Store:
		return 0
	case Branch, Call, Ret:
		return 1
	}
	return 2
}

// addrClass returns the Addr delta context for kinds that carry one:
// data addresses (loads/stores) and call targets live in disjoint
// regions.
func addrClass(k Kind) (int, bool) {
	switch k {
	case Load, Store:
		return 0, true
	case Call:
		return 1, true
	}
	return 0, false
}

// WriteTo serialises the trace. It implements io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	h := fnv.New64a()
	cw := &countingWriter{w: io.MultiWriter(w, h)}
	bw := bufio.NewWriter(cw)

	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}

	if _, err := bw.WriteString(traceMagic); err != nil {
		return cw.n, err
	}
	if err := putUvarint(traceVersion); err != nil {
		return cw.n, err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return cw.n, err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return cw.n, err
	}
	if err := putUvarint(uint64(len(t.Ops))); err != nil {
		return cw.n, err
	}

	// Per-class delta contexts: PCs cluster by op class (code walk,
	// data-access sites, branch sites) and addresses only exist for
	// memory ops and call targets, so separate contexts keep deltas tiny.
	var prevPC [3]uint64
	var prevAddr [2]uint64
	var prevILine uint32
	for i := range t.Ops {
		op := &t.Ops[i]
		tag := byte(op.Kind) & tagKindMask
		if op.Taken {
			tag |= tagTaken
		}
		if op.Indirect() {
			tag |= tagIndirect
		}
		dep1, dep2 := op.Dep1(), op.Dep2()
		if dep1 > 0 {
			tag |= tagHasDep1
		}
		if dep2 > 0 {
			tag |= tagHasDep2
		}
		if err := bw.WriteByte(tag); err != nil {
			return cw.n, err
		}
		pcl := pcClass(op.Kind)
		if err := putUvarint(zigzag(int64(op.PC) - int64(prevPC[pcl]))); err != nil {
			return cw.n, err
		}
		prevPC[pcl] = op.PC
		if acl, ok := addrClass(op.Kind); ok {
			addr := op.Addr()
			if err := putUvarint(zigzag(int64(addr) - int64(prevAddr[acl]))); err != nil {
				return cw.n, err
			}
			prevAddr[acl] = addr
		}
		iline := op.ILine()
		if err := putUvarint(zigzag(int64(iline) - int64(prevILine))); err != nil {
			return cw.n, err
		}
		prevILine = iline
		if dep1 > 0 {
			if err := putUvarint(uint64(dep1)); err != nil {
				return cw.n, err
			}
		}
		if dep2 > 0 {
			if err := putUvarint(uint64(dep2)); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// Checksum goes after the payload, outside the hashed region.
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	n, err := w.Write(sum[:])
	return cw.n + int64(n), err
}

// Read deserialises a trace written by WriteTo, verifying the checksum.
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	if len(data) < len(traceMagic)+8 {
		return nil, fmt.Errorf("trace: truncated (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := binary.LittleEndian.Uint64(sum), h.Sum64(); got != want {
		return nil, fmt.Errorf("trace: checksum mismatch (%#x != %#x)", got, want)
	}
	br := bytes.NewReader(payload)

	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading op count: %w", err)
	}
	// Each op takes at least 3 bytes (tag, PC delta, ILine delta), so a
	// count beyond a third of the remaining payload is a lie; rejecting
	// it here keeps a crafted header from forcing a huge allocation.
	if count == 0 || count > 1<<31 || count > uint64(br.Len())/3 {
		return nil, fmt.Errorf("trace: implausible op count %d", count)
	}

	ops := make([]Op, count)
	var prevPC [3]uint64
	var prevAddr [2]uint64
	var prevILine uint32
	for i := range ops {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		kind := Kind(tag & tagKindMask)
		if kind > Ret {
			return nil, fmt.Errorf("trace: op %d: bad kind %d", i, kind)
		}
		op := &ops[i]
		op.Kind = kind
		op.Taken = tag&tagTaken != 0
		op.SetIndirect(tag&tagIndirect != 0)

		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: op %d pc: %w", i, err)
		}
		pcl := pcClass(kind)
		prevPC[pcl] = uint64(int64(prevPC[pcl]) + unzigzag(d))
		op.PC = prevPC[pcl]
		if acl, ok := addrClass(kind); ok {
			d, err = binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: op %d addr: %w", i, err)
			}
			prevAddr[acl] = uint64(int64(prevAddr[acl]) + unzigzag(d))
			if prevAddr[acl] > maxAddr {
				return nil, fmt.Errorf("trace: op %d: addr %#x exceeds %#x", i, prevAddr[acl], uint64(maxAddr))
			}
			op.SetAddr(prevAddr[acl])
		}
		d, err = binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: op %d iline: %w", i, err)
		}
		prevILine = uint32(int64(prevILine) + unzigzag(d))
		if prevILine > maxILine {
			return nil, fmt.Errorf("trace: op %d: iline %#x exceeds %#x", i, prevILine, maxILine)
		}
		op.SetILine(prevILine)

		if tag&tagHasDep1 != 0 {
			d, err = binary.ReadUvarint(br)
			if err != nil || d == 0 || d > 65535 {
				return nil, fmt.Errorf("trace: op %d dep1 invalid", i)
			}
			op.SetDep1(uint16(d))
		}
		if tag&tagHasDep2 != 0 {
			d, err = binary.ReadUvarint(br)
			if err != nil || d == 0 || d > 65535 {
				return nil, fmt.Errorf("trace: op %d dep2 invalid", i)
			}
			op.SetDep2(uint16(d))
		}
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes", br.Len())
	}
	return &Trace{Name: string(name), Ops: ops}, nil
}

// SaveFile writes the trace to path (atomically via a temp file).
func (t *Trace) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a trace from path.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// countingWriter counts bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
