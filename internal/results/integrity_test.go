package results

// Tests for the durability layer: the CRC32 integrity footer, the
// quarantine of corrupt files, torn-write recovery at every byte
// boundary, and the fault-injection hooks on the store's filesystem
// ops.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mcbench/internal/faultinject"
)

// TestFooterRoundTrip pins the footer codec on itself.
func TestFooterRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte(""), []byte("x"), []byte(`{"a":1}`), bytes.Repeat([]byte("mcbench"), 1000),
	} {
		framed := appendFooter(append([]byte(nil), payload...))
		got, hasFooter, valid := splitFooter(framed)
		if !hasFooter || !valid {
			t.Fatalf("round trip lost the footer: has=%v valid=%v", hasFooter, valid)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload changed through the footer: %q != %q", got, payload)
		}
		// Any single flipped bit — payload or footer — must invalidate.
		for _, i := range []int{0, len(framed) / 2, len(framed) - 2} {
			if len(framed) == footerLen && i == 0 {
				i = len(framed) - 2 // empty payload: only footer bytes exist
			}
			mut := append([]byte(nil), framed...)
			mut[i] ^= 0x40
			if _, has, valid := splitFooter(mut); has && valid {
				t.Fatalf("bit flip at %d of %d went undetected", i, len(framed))
			}
		}
	}
}

// TestSavedFilesCarryFooter pins that Save writes the footer and that
// the payload before it is plain JSON a legacy reader would accept.
func TestSavedFilesCarryFooter(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, want.Key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	payload, hasFooter, valid := splitFooter(data)
	if !hasFooter || !valid {
		t.Fatalf("saved file footer: has=%v valid=%v", hasFooter, valid)
	}
	var got IPCTable
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatalf("payload before footer is not plain JSON: %v", err)
	}
	if got.Identity != want.Identity {
		t.Error("payload identity changed through Save")
	}
}

// TestLegacyFileWithoutFooterLoads pins backward compatibility: a file
// written by an older version — raw JSON, no footer — still loads.
func TestLegacyFileWithoutFooterLoads(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, want.Key()+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(*want)
	if err != nil || !ok {
		t.Fatalf("legacy file did not load: ok=%v err=%v", ok, err)
	}
	if got.Identity != want.Identity {
		t.Error("legacy load changed identity")
	}
	// And List must not call it corrupt.
	entries, err := s.List()
	if err != nil || len(entries) != 1 || entries[0].Corrupt {
		t.Fatalf("legacy file listed wrong: %+v err=%v", entries, err)
	}
}

// TestTornWriteEveryBoundary is the satellite contract: truncate a
// staged table at every byte boundary, reopen the store, and assert the
// torn file is quarantined — never decoded into a wrong table and never
// fatal to Open or List. The only truncations allowed to load are the
// two that happen to leave the complete payload (the footer cut off at
// or just after the payload's end, i.e. a well-formed legacy file whose
// content is exactly right).
func TestTornWriteEveryBoundary(t *testing.T) {
	want := table()
	payload, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	full := appendFooter(append([]byte(nil), payload...))
	path := want.Key() + ".json"
	for n := 0; n < len(full); n++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, path), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("torn file at %d bytes broke Open: %v", n, err)
		}
		got, ok, err := s.Load(*want)
		if err != nil {
			t.Fatalf("torn file at %d bytes made Load error: %v", n, err)
		}
		if ok {
			// Tolerable only when the cut preserved the full payload
			// (n == len(payload): intact JSON; +1: plus the footer's
			// leading newline, which JSON treats as trailing whitespace).
			if n != len(payload) && n != len(payload)+1 {
				t.Fatalf("torn file at %d of %d bytes served a table", n, len(full))
			}
			if got.Identity != want.Identity {
				t.Fatalf("torn file at %d bytes served a WRONG table", n)
			}
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, QuarantineDir, path)); err != nil {
			t.Fatalf("torn file at %d bytes not quarantined: %v", n, err)
		}
		if _, err := s.List(); err != nil {
			t.Fatalf("List errored after quarantine at %d bytes: %v", n, err)
		}
	}
}

// TestListReportsQuarantined pins the operator surface: after Load
// quarantines a corrupt file, List reports it — Corrupt and
// Quarantined, under the quarantine/ key prefix — alongside the live
// tables.
func TestListReportsQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	good := table()
	if err := s.Save(good); err != nil {
		t.Fatal(err)
	}
	bad := table()
	bad.Policy = "DIP"
	if err := os.WriteFile(filepath.Join(dir, bad.Key()+".json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(*bad); ok || err != nil {
		t.Fatalf("corrupt load: ok=%v err=%v", ok, err)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	var qn, live int
	for _, e := range entries {
		if e.Quarantined {
			qn++
			if !e.Corrupt {
				t.Errorf("quarantined entry %s not marked corrupt", e.Key)
			}
			if e.Key != QuarantineDir+"/"+bad.Key() {
				t.Errorf("quarantined key %q", e.Key)
			}
		} else {
			live++
			if e.Key != good.Key() || e.Corrupt {
				t.Errorf("live entry wrong: %+v", e)
			}
		}
	}
	if qn != 1 || live != 1 {
		t.Fatalf("List: %d quarantined, %d live; want 1 and 1: %+v", qn, live, entries)
	}
}

// TestQuarantineKeepsGenerations pins that a second corruption of the
// same key does not clobber the first quarantined file.
func TestQuarantineKeepsGenerations(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	path := filepath.Join(dir, want.Key()+".json")
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.Load(*want); ok {
			t.Fatal("corrupt file served")
		}
	}
	qdir := filepath.Join(dir, QuarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("quarantine holds %d files, want 2 (err %v)", len(entries), err)
	}
}

// TestInjectedSaveFaults pins the store's fault hooks: an injected save
// error surfaces as an error (the lab treats it as cache-miss traffic),
// and an injected torn write publishes a file Load then quarantines —
// the exact recovery path the chaos harness leans on.
func TestInjectedSaveFaults(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()

	p := faultinject.NewPlan(11)
	p.Rule("results.save", faultinject.Rule{ErrorRate: 1})
	faultinject.Enable(p)
	if err := s.Save(want); err == nil {
		faultinject.Disable()
		t.Fatal("injected save error did not surface")
	}
	faultinject.Disable()

	p = faultinject.NewPlan(11)
	p.Rule("results.save.write", faultinject.Rule{TruncRate: 1})
	faultinject.Enable(p)
	if err := s.Save(want); err != nil {
		faultinject.Disable()
		t.Fatalf("torn save errored: %v", err)
	}
	faultinject.Disable()
	if p.Injected("results.save.write") == 0 {
		t.Fatal("torn-write fault did not fire")
	}
	got, ok, err := s.Load(*want)
	if err != nil || ok || got != nil {
		t.Fatalf("torn file served: %v, %v, %v", got, ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, want.Key()+".json")); err != nil {
		t.Errorf("torn file not quarantined: %v", err)
	}
	// Faults off: the store heals on the next save.
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(*want); err != nil || !ok {
		t.Fatalf("heal failed: %v, %v", ok, err)
	}
}
