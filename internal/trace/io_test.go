package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func ioParams() Params {
	return Params{
		Name:        "roundtrip",
		LoadFrac:    0.25,
		StoreFrac:   0.1,
		BranchFrac:  0.12,
		FPFrac:      0.05,
		CallFrac:    0.04,
		LoopFrac:    0.3,
		CorrFrac:    0.2,
		DepMean:     7,
		LoadDepFrac: 0.5,
		BranchBias:  0.9,
		CodeBytes:   16 << 10,
		Patterns: []PatternSpec{
			{Kind: HotSet, Bytes: 64 << 10, Weight: 1},
			{Kind: Stream, Weight: 0.5},
			{Kind: Chase, Bytes: 32 << 10, Weight: 0.3},
		},
		Seed: 99,
	}
}

func TestRoundTripExact(t *testing.T) {
	tr := MustGenerate(ioParams(), 20000)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name %q != %q", got.Name, tr.Name)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("op count %d != %d", len(got.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d differs: %+v != %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestEncodingIsCompact(t *testing.T) {
	tr := MustGenerate(ioParams(), 50000)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	perOp := float64(buf.Len()) / float64(tr.Len())
	// In-memory ops are 24 bytes; the wire format must be far denser.
	if perOp > 8 {
		t.Errorf("%.1f bytes/op on the wire; expected < 8", perOp)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	tr := MustGenerate(ioParams(), 5000)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, flip := range []int{len(traceMagic) + 3, buf.Len() / 2, buf.Len() - 9} {
		data := append([]byte(nil), buf.Bytes()...)
		data[flip] ^= 0x40
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("corruption at byte %d not detected", flip)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	tr := MustGenerate(ioParams(), 5000)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, len(traceMagic), buf.Len() / 3, buf.Len() - 1} {
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncation at %d of %d not detected", cut, buf.Len())
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE12345678xxxxxxxx"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.mcbt")
	tr := MustGenerate(ioParams(), 8000)
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// The temp file must not linger.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Ops) != len(tr.Ops) {
		t.Fatalf("loaded %s/%d, want %s/%d", got.Name, len(got.Ops), tr.Name, len(tr.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d differs after file round trip", i)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.mcbt")); err == nil {
		t.Error("missing file did not error")
	}
}

// Property: zigzag is a bijection on int64.
func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for _, v := range []int64{0, 1, -1, 1 << 62, -(1 << 62)} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag not bijective at %d", v)
		}
	}
}

// Property: round trip preserves arbitrary generated traces across the
// whole parameter space the suite uses.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := ioParams()
		p.Seed = seed
		tr := MustGenerate(p, 2000)
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Ops) != len(tr.Ops) {
			return false
		}
		for i := range tr.Ops {
			if got.Ops[i] != tr.Ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// withFooter appends the FNV-64a footer Read verifies.
func withFooter(payload []byte) []byte {
	h := fnv.New64a()
	h.Write(payload)
	return binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64())
}

// TestReadRejectsCraftedOpCount: a tiny file with a valid footer that
// declares 2^28 ops must be rejected before the op slice is allocated.
// Every op takes at least 3 bytes, so the count cannot exceed a third
// of the remaining payload.
func TestReadRejectsCraftedOpCount(t *testing.T) {
	payload := append([]byte(traceMagic), traceVersion, 1, 'x')
	payload = binary.AppendUvarint(payload, 1<<28)
	payload = append(payload, 0, 0, 0)
	if _, err := Read(bytes.NewReader(withFooter(payload))); err == nil {
		t.Fatal("crafted op count accepted")
	}
}

// FuzzRead feeds arbitrary bytes to Read, as is and behind a valid
// footer (so the mutator reaches the decoder instead of stopping at the
// checksum). Read must never panic, and a trace it accepts must come
// back unchanged through WriteTo and Read.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if _, err := MustGenerate(ioParams(), 64).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[:buf.Len()-8])
	f.Fuzz(func(t *testing.T, payload []byte) {
		Read(bytes.NewReader(payload))
		tr, err := Read(bytes.NewReader(withFooter(payload)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&out)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("round trip changed the trace: %+v != %+v", got, tr)
		}
	})
}
