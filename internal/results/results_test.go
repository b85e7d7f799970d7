package results

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func table() *IPCTable {
	return &IPCTable{
		Identity: Identity{
			Simulator:  "badco",
			Cores:      2,
			Policy:     "LRU",
			TraceLen:   1000,
			Population: 3,
			Seed:       7,
		},
		IPC: [][]float64{{1, 2}, {0.5, 1.5}, {2, 2}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := table()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(IPCTable{Identity: Identity{
		Simulator: "badco", Cores: 2, Policy: "LRU", TraceLen: 1000, Population: 3, Seed: 7,
	}})
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	for i := range want.IPC {
		for k := range want.IPC[i] {
			if got.IPC[i][k] != want.IPC[i][k] {
				t.Fatalf("IPC[%d][%d] = %g, want %g", i, k, got.IPC[i][k], want.IPC[i][k])
			}
		}
	}
}

func TestLoadAbsent(t *testing.T) {
	s, _ := Open(t.TempDir())
	_, ok, err := s.Load(IPCTable{Identity: Identity{Simulator: "x", Cores: 1, Policy: "LRU", TraceLen: 1, Population: 0}})
	if err != nil || ok {
		t.Fatalf("absent load: ok=%v err=%v", ok, err)
	}
}

func TestKeyDistinguishesParameters(t *testing.T) {
	a := table()
	b := table()
	b.Policy = "DIP"
	if a.Key() == b.Key() {
		t.Error("different policies share a key")
	}
	c := table()
	c.TraceLen = 2000
	if a.Key() == c.Key() {
		t.Error("different trace lengths share a key")
	}
}

func TestValidateRejectsBadTables(t *testing.T) {
	cases := []func(*IPCTable){
		func(t *IPCTable) { t.Simulator = "" },
		func(t *IPCTable) { t.Cores = 0 },
		func(t *IPCTable) { t.Population = 5 },             // row mismatch
		func(t *IPCTable) { t.IPC[1] = []float64{1} },      // core mismatch
		func(t *IPCTable) { t.IPC[0] = []float64{0, 1} },   // non-positive IPC
		func(t *IPCTable) { t.IPC[2] = []float64{-1, -1} }, // negative
	}
	for i, mutate := range cases {
		tab := table()
		mutate(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad table", i)
		}
	}
	if err := table().Validate(); err != nil {
		t.Errorf("Validate rejected good table: %v", err)
	}
}

// vectorTable returns a valid per-benchmark table of the given simulator
// (SimRef or SimMPKI): three benchmarks, one value each. The MPKI table
// holds a 0, a benchmark that never misses the LLC.
func vectorTable(sim string) *IPCTable {
	t := &IPCTable{
		Identity: Identity{Simulator: sim, Cores: 2, Policy: "LRU", TraceLen: 1000, Population: 3, Seed: 7},
		IPC:      [][]float64{{0.5}, {1.25}, {2}},
	}
	if sim == SimMPKI {
		t.Cores, t.IPC[0][0] = 1, 0
	}
	return t
}

// TestVectorTables checks the shape of the reference IPC and MPKI
// tables: one value per row, reference IPCs positive, MPKIs finite and
// non-negative. Both round-trip through the store bit for bit.
func TestVectorTables(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, sim := range []string{SimRef, SimMPKI} {
		want := vectorTable(sim)
		if err := s.Save(want); err != nil {
			t.Fatalf("%s: Save: %v", sim, err)
		}
		got, ok, err := s.Load(IPCTable{Identity: want.Identity})
		if err != nil || !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Load = %+v, %v, %v; want %+v", sim, got, ok, err, want)
		}
	}
	for name, c := range map[string]struct {
		sim    string
		mutate func(*IPCTable)
	}{
		"ref zero":          {SimRef, func(t *IPCTable) { t.IPC[1][0] = 0 }},
		"ref NaN":           {SimRef, func(t *IPCTable) { t.IPC[1][0] = math.NaN() }},
		"ref row too wide":  {SimRef, func(t *IPCTable) { t.IPC[1] = []float64{1, 1} }},
		"ref row empty":     {SimRef, func(t *IPCTable) { t.IPC[1] = nil }},
		"ref rows missing":  {SimRef, func(t *IPCTable) { t.Population = 4 }},
		"mpki negative":     {SimMPKI, func(t *IPCTable) { t.IPC[1][0] = -0.5 }},
		"mpki NaN":          {SimMPKI, func(t *IPCTable) { t.IPC[1][0] = math.NaN() }},
		"mpki +Inf":         {SimMPKI, func(t *IPCTable) { t.IPC[1][0] = math.Inf(1) }},
		"mpki row too wide": {SimMPKI, func(t *IPCTable) { t.IPC[1] = []float64{1, 1} }},
	} {
		tab := vectorTable(c.sim)
		c.mutate(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad table", name)
		}
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	s, _ := Open(t.TempDir())
	bad := table()
	bad.Cores = 0
	if err := s.Save(bad); err == nil {
		t.Error("Save accepted invalid table")
	}
}

func TestCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file on disk.
	path := filepath.Join(dir, want.Key()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Corruption is a miss, never an error and never a wrong table: the
	// caller recomputes while the bad file moves to quarantine.
	got, ok, err := s.Load(*want)
	if err != nil || ok || got != nil {
		t.Fatalf("Load(corrupt) = %v, %v, %v; want miss", got, ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file left live after Load")
	}
	q := filepath.Join(dir, QuarantineDir, want.Key()+".json")
	if _, err := os.Stat(q); err != nil {
		t.Errorf("corrupt file not quarantined: %v", err)
	}
	// A recompute republishes cleanly over the quarantined name.
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Load(*want); err != nil || !ok || got == nil {
		t.Fatalf("reload after recompute = %v, %v, %v", got, ok, err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open accepted empty dir")
	}
}

// TestConcurrentSaveLoadSameKey exercises the store the way a concurrent
// campaign does: many goroutines saving and loading one IPCTable key at
// once. Every load must observe either "absent" or a complete, valid
// table — never a torn or partially renamed file.
func TestConcurrentSaveLoadSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := table()
	proto := IPCTable{Identity: want.Identity}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Save(table()); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				got, ok, err := s.Load(proto)
				if err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				if !ok {
					continue // another writer's rename not landed yet
				}
				for r := range want.IPC {
					for c := range want.IPC[r] {
						if got.IPC[r][c] != want.IPC[r][c] {
							t.Errorf("IPC[%d][%d] = %g, want %g", r, c, got.IPC[r][c], want.IPC[r][c])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	// The store directory must hold exactly the one key — no stranded
	// staging files counted as tables.
	entries, err := s.List()
	if err != nil || len(entries) != 1 || entries[0].Key != want.Key() {
		t.Fatalf("entries after concurrent saves: %+v (err %v)", entries, err)
	}
}

func TestOpenReclaimsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "badco-c2-LRU-l1000-p3-s7-12345.tmp")
	fresh := filepath.Join(dir, "badco-c2-DIP-l1000-p3-s7-67890.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale staging file not reclaimed")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh staging file must survive (may belong to a live writer)")
	}
}

func TestUniverseDistinguishesKeys(t *testing.T) {
	a := table()
	b := table()
	b.Universe = 40 // same sample size drawn from a different population
	if a.Key() == b.Key() {
		t.Error("sampled table shares a key with a full-population table")
	}
	c := table()
	c.Universe = 80
	if b.Key() == c.Key() {
		t.Error("samples from different universes share a key")
	}
	// A sample larger than its universe is structurally invalid.
	bad := table()
	bad.Universe = 2 // population is 3
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted population above universe")
	}
	if b.Validate() != nil {
		t.Errorf("Validate rejected sampled table: %v", b.Validate())
	}
}

func TestSavedFilesAreWorldReadable(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, want.Key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	// Shared cache directories need group/other read bits (modulo umask).
	if info.Mode().Perm()&0o044 == 0 {
		t.Errorf("saved table mode %v lacks group/other read bits", info.Mode().Perm())
	}
}

// TestListPreservesIdentity is the satellite contract of the /cache
// endpoint: List must report the raw identity fields of every stored
// table — including source specs whose sanitized filenames cannot be
// mapped back — and surface corrupt files instead of hiding them.
func TestListPreservesIdentity(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	a := table()
	b := table()
	b.Policy = "DIP"
	b.Source = "dir:/traces/a b" // sanitization is lossy for this spec
	for _, tab := range []*IPCTable{a, b} {
		if err := s.Save(tab); err != nil {
			t.Fatal(err)
		}
	}
	// A file that is not a table at all.
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("List returned %d entries, want 3: %+v", len(entries), entries)
	}
	byKey := map[string]Entry{}
	for _, e := range entries {
		byKey[e.Key] = e
	}
	got, ok := byKey[b.Key()]
	if !ok {
		t.Fatalf("List missing key %s", b.Key())
	}
	if got.Corrupt {
		t.Fatal("valid table listed as corrupt")
	}
	// The raw identity survives, even though the filename sanitized it.
	if got.Table.Source != b.Source || got.Table.Policy != "DIP" ||
		got.Table.Cores != b.Cores || got.Table.Population != b.Population ||
		got.Table.Seed != b.Seed || got.Table.TraceLen != b.TraceLen {
		t.Errorf("listed identity %+v does not match saved table", got.Table)
	}
	if got.Table.IPC != nil {
		t.Error("List kept the IPC rows; identity-only listing expected")
	}
	if got.Bytes <= 0 || got.ModTime.IsZero() {
		t.Errorf("file metadata missing: bytes=%d mod=%v", got.Bytes, got.ModTime)
	}
	junk, ok := byKey["junk"]
	if !ok || !junk.Corrupt {
		t.Errorf("corrupt file not surfaced: %+v", junk)
	}
	// A decodable table stored under the wrong filename is corrupt too:
	// serving it under its filename identity would be a lie.
	wrong := table()
	wrong.Policy = "RND"
	data, _ := json.Marshal(wrong)
	if err := os.WriteFile(filepath.Join(dir, "badco-c9-LRU-l1-p1-s1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, _ = s.List()
	found := false
	for _, e := range entries {
		if e.Key == "badco-c9-LRU-l1-p1-s1" {
			found = true
			if !e.Corrupt {
				t.Error("mismatched filename/content not marked corrupt")
			}
		}
	}
	if !found {
		t.Error("mismatched entry missing from listing")
	}
}

// TestIdentityKeysPinned pins Identity.Key to literal strings: the keys
// name files persisted across versions and the fleet fetches tables by
// them, so a refactor of how the key is built must reproduce these bytes
// exactly.
func TestIdentityKeysPinned(t *testing.T) {
	base := Identity{Simulator: "badco", Cores: 4, Policy: "DRRIP", TraceLen: 20000, Population: 330, Seed: 1}
	with := func(f func(*Identity)) Identity {
		id := base
		f(&id)
		return id
	}
	for _, c := range []struct {
		id   Identity
		want string
	}{
		{base, "badco-c4-DRRIP-l20000-p330-s1"},
		{with(func(id *Identity) {
			id.Simulator, id.Population, id.Universe = "detailed", 40, 330
		}), "detailed-c4-DRRIP-l20000-p40-s1-u330"},
		{with(func(id *Identity) { id.Source = "scaled:64:7" }), "badco-c4-DRRIP-l20000-p330-s1-scaled_64_7-7b934576"},
		{with(func(id *Identity) {
			id.Simulator, id.Population, id.Universe, id.Source = "detailed", 40, 2016, "dir:traces/spec"
		}), "detailed-c4-DRRIP-l20000-p40-s1-u2016-dir_traces_spec-5a9c5cba"},
		{with(func(id *Identity) {
			id.Simulator, id.Cores, id.Policy, id.Population = SimRef, 2, "LRU", 22
		}), "ref-c2-LRU-l20000-p22-s1"},
		{with(func(id *Identity) {
			id.Simulator, id.Cores, id.Policy, id.Population = SimMPKI, 1, "LRU", 22
		}), "mpki-c1-LRU-l20000-p22-s1"},
		{with(func(id *Identity) {
			id.Simulator, id.Cores, id.Policy, id.Population, id.Source = SimRef, 4, "LRU", 64, "scaled:64:7"
		}), "ref-c4-LRU-l20000-p64-s1-scaled_64_7-7b934576"},
	} {
		if got := c.id.Key(); got != c.want {
			t.Errorf("%+v: Key() = %q, want %q", c.id, got, c.want)
		}
	}
}
