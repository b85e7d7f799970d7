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
		got, ok := splitFooter(framed)
		if !ok {
			t.Fatal("round trip lost the footer")
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
			if _, ok := splitFooter(mut); ok {
				t.Fatalf("bit flip at %d of %d went undetected", i, len(framed))
			}
		}
	}
}

// TestSavedFilesCarryFooter pins that Save writes the footer and that
// the payload before it is plain JSON.
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
	payload, ok := splitFooter(data)
	if !ok {
		t.Fatal("saved file lacks a valid footer")
	}
	var got IPCTable
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatalf("payload before footer is not plain JSON: %v", err)
	}
	if got.Identity != want.Identity {
		t.Error("payload identity changed through Save")
	}
}

// TestFooterlessFileQuarantined pins that the footer is mandatory: a
// file of plain JSON with no footer, which builds before the footer
// wrote, lists as corrupt, is refused by ReadRaw, and is quarantined
// and reported as a miss by Load, even though its payload is a valid
// table of the requested identity.
func TestFooterlessFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, want.Key()+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := s.List()
	if err != nil || len(entries) != 1 || !entries[0].Corrupt || entries[0].Quarantined {
		t.Fatalf("footer-less file listed as %+v (err %v), want one live corrupt entry", entries, err)
	}
	for _, read := range []string{"Load", "ReadRaw"} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var ok bool
		if read == "Load" {
			var got *IPCTable
			got, ok, err = s.Load(*want)
			if got != nil {
				t.Fatalf("Load served a footer-less file: %+v", got)
			}
		} else {
			_, ok, err = s.ReadRaw(want.Key())
		}
		if err != nil || ok {
			t.Fatalf("%s(footer-less) = %v, %v; want a miss", read, ok, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s left the footer-less file live", read)
		}
	}
	if q, err := os.ReadDir(filepath.Join(dir, QuarantineDir)); err != nil || len(q) != 2 {
		t.Fatalf("quarantine holds %d files, want 2 (err %v)", len(q), err)
	}
}

// TestWarmedAndSampledFilesRefused pins what happens to the warmed and
// sampled tables that builds before this format wrote. The bytes are
// those builds' Save output, footer included. Listed under their own
// keys, both are corrupt: their identity no longer renders to that key.
// Neither is served for the exact identity of the same configuration,
// not even when copied under its key, where the strict decoder refuses
// the fields this format does not have.
func TestWarmedAndSampledFilesRefused(t *testing.T) {
	old := map[string]string{
		"badco-c2-LRU-l1000-p3-s7-w1500": `{"simulator":"badco","cores":2,"policy":"LRU","trace_len":1000,"population":3,"seed":7,"warmup":1500,` +
			`"ipc":[[1,2],[0.5,1.5],[2,2]]}` + "\nmcbench-crc32:3683433e\n",
		"badco-c2-LRU-l1000-p3-s7-smpu10000d1000w500": `{"simulator":"badco","cores":2,"policy":"LRU","trace_len":1000,"population":3,"seed":7,` +
			`"sample_unit":10000,"sample_window":1000,"sample_warmup":500,"ipc":[[1,2],[0.5,1.5],[2,2]],` +
			`"ci":[[0.1,0.2],[0.1,0.1],[0.2,0.2]],"cv":[[0.3,0.4],[0.3,0.3],[0.4,0.4]]}` + "\nmcbench-crc32:d4d9236c\n",
	}
	dir := t.TempDir()
	s, _ := Open(dir)
	for key, data := range old {
		if _, ok := splitFooter([]byte(data)); !ok {
			t.Fatalf("%s: the stored bytes fail their own footer", key)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.List()
	if err != nil || len(entries) != len(old) {
		t.Fatalf("List = %+v (err %v), want %d entries", entries, err, len(old))
	}
	for _, e := range entries {
		if _, ok := old[e.Key]; !ok || !e.Corrupt || e.Quarantined {
			t.Errorf("entry %+v, want a live corrupt entry for an old key", e)
		}
	}
	want := table()
	if got, ok, err := s.Load(*want); err != nil || ok || got != nil {
		t.Fatalf("exact Load beside old files = %v, %v, %v; want a miss", got, ok, err)
	}
	for key, data := range old {
		if err := os.WriteFile(filepath.Join(dir, want.Key()+".json"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := s.Load(*want); err != nil || ok || got != nil {
			t.Errorf("%s under the exact key: Load = %v, %v, %v; want a miss", key, got, ok, err)
		}
	}
}

// TestTrailingDataRefused pins that a verified payload holding a valid
// table followed by more JSON is corrupt, not a table.
func TestTrailingDataRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	payload, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{" {}", "\n" + string(payload), " x"} {
		data := appendFooter(append(append([]byte(nil), payload...), tail...))
		if err := os.WriteFile(filepath.Join(dir, want.Key()+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := s.Load(*want); err != nil || ok || got != nil {
			t.Errorf("payload with trailing %q: Load = %v, %v, %v; want a miss", tail, got, ok, err)
		}
	}
}

// TestTornWriteEveryBoundary truncates a staged table at every byte
// boundary, reopens the store, and asserts the torn file is quarantined
// — never served, not even when the cut leaves the complete payload,
// and never fatal to Open or List.
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
		if ok || got != nil {
			t.Fatalf("torn file at %d of %d bytes served a table", n, len(full))
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

// TestListAgreesWithLoad pins that List decodes a file as Load does: a
// table whose footer verifies and whose identity renders its own key,
// but which Validate refuses (an IPC of 0), lists as corrupt and is
// never served.
func TestListAgreesWithLoad(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	bad := table()
	bad.IPC[1][0] = 0
	payload, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bad.Key()+".json"), appendFooter(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := s.List()
	if err != nil || len(entries) != 1 || entries[0].Key != bad.Key() || !entries[0].Corrupt {
		t.Fatalf("List = %+v (err %v), want one corrupt entry %s", entries, err, bad.Key())
	}
	if got, ok, err := s.Load(*table()); err != nil || ok || got != nil {
		t.Fatalf("Load = %v, %v, %v; want a miss", got, ok, err)
	}
}
