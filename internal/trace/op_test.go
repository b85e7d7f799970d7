package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"unsafe"
)

func TestOpIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 24 {
		t.Fatalf("trace.Op takes %d bytes, want 24", got)
	}
}

// TestOpAccessorsAtLimits round-trips every packed field at its limits on
// every kind, with both flags set and clear, and checks that no setter
// disturbs a neighbouring field.
func TestOpAccessorsAtLimits(t *testing.T) {
	type fields struct {
		addr       uint64
		iline      uint32
		dep1, dep2 uint16
		indirect   bool
	}
	get := func(op Op) fields {
		return fields{op.Addr(), op.ILine(), op.Dep1(), op.Dep2(), op.Indirect()}
	}
	for k := ALU; k <= Ret; k++ {
		for _, want := range []fields{
			{maxAddr, maxILine, 65535, 65535, true},
			{0, 0, 0, 0, false},
			{maxAddr, 0, 65535, 0, false},
			{0, maxILine, 0, 65535, true},
			{1, 1, 1, 1, true},
		} {
			for _, taken := range []bool{false, true} {
				const pc = 1<<64 - 1
				op := Op{PC: pc, Kind: k, Taken: taken}
				// Start from the opposite extreme so every bit must move.
				op.SetAddr(maxAddr - want.addr)
				op.SetILine(maxILine - want.iline)
				op.SetDep1(65535 - want.dep1)
				op.SetDep2(65535 - want.dep2)
				op.SetIndirect(!want.indirect)
				op.SetIndirect(want.indirect)
				op.SetDep2(want.dep2)
				op.SetDep1(want.dep1)
				op.SetILine(want.iline)
				op.SetAddr(want.addr)
				if got := get(op); got != want || op.PC != pc || op.Kind != k || op.Taken != taken {
					t.Fatalf("%v taken=%v: read back %+v (pc %#x kind %v taken %v), want %+v",
						k, taken, got, op.PC, op.Kind, op.Taken, want)
				}
			}
		}
	}
}

func TestOpSettersRejectWideValues(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Op)
	}{
		{"addr", func(op *Op) { op.SetAddr(maxAddr + 1) }},
		{"iline", func(op *Op) { op.SetILine(maxILine + 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set %s past its limit did not panic", c.name)
				}
			}()
			c.set(&Op{})
		}()
	}
}

// boundaryPayload is the footer-less encoding of a one-op trace named "x"
// whose op has the given kind, absolute Addr (written only for kinds that
// carry one) and ILine.
func boundaryPayload(kind Kind, addr, iline uint64) []byte {
	p := append([]byte(traceMagic), traceVersion, 1, 'x', 1, byte(kind))
	p = binary.AppendUvarint(p, 0) // PC delta
	if _, ok := addrClass(kind); ok {
		p = binary.AppendUvarint(p, zigzag(int64(addr)))
	}
	return binary.AppendUvarint(p, zigzag(int64(iline)))
}

func TestReadEnforcesFieldWidths(t *testing.T) {
	for _, c := range []struct {
		kind        Kind
		addr, iline uint64
		err         string // "" = accepted
	}{
		{Load, maxAddr, 0, ""},
		{Call, maxAddr, maxILine, ""},
		{ALU, 0, maxILine, ""},
		{Store, maxAddr + 1, 0, "op 0: addr 0x1000000000000 exceeds"},
		{Call, maxAddr + 1, 0, "op 0: addr 0x1000000000000 exceeds"},
		{ALU, 0, maxILine + 1, "op 0: iline 0x1000000 exceeds"},
	} {
		tr, err := Read(bytes.NewReader(withFooter(boundaryPayload(c.kind, c.addr, c.iline))))
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v addr %#x iline %#x rejected: %v", c.kind, c.addr, c.iline, err)
		case c.err == "" && (tr.Ops[0].Addr() != c.addr || uint64(tr.Ops[0].ILine()) != c.iline):
			t.Errorf("%v read back addr %#x iline %#x, want %#x %#x",
				c.kind, tr.Ops[0].Addr(), tr.Ops[0].ILine(), c.addr, c.iline)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v addr %#x iline %#x: error %v, want %q", c.kind, c.addr, c.iline, err, c.err)
		}
	}
}

// TestRoundTripAtLimits writes and reads back a trace whose ops sit at
// every field limit, with both flags on every kind.
func TestRoundTripAtLimits(t *testing.T) {
	var ops []Op
	for k := ALU; k <= Ret; k++ {
		for _, hi := range []bool{true, false} {
			op := Op{PC: 1<<64 - 1, Kind: k, Taken: hi}
			op.SetIndirect(hi)
			if hi {
				op.SetILine(maxILine)
				op.SetDep1(65535)
				op.SetDep2(65535)
				if _, ok := addrClass(k); ok {
					op.SetAddr(maxAddr)
				}
			}
			ops = append(ops, op)
		}
	}
	tr := &Trace{Name: "limits", Ops: ops}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if got.Ops[i] != ops[i] {
			t.Errorf("op %d: read back %+v, want %+v", i, got.Ops[i], ops[i])
		}
	}
}
