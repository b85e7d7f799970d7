package results

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Fuzz modes: which side of the read-through path holds the bytes, and
// which table Load asks for (a population table by default).
const (
	fuzzLocal     = 1 << iota // the bytes sit in the local file for the key
	fuzzFetchOK               // the fetcher returns its bytes as a hit
	fuzzFetchFail             // the fetcher fails with a transport error
	fuzzRef                   // ask for vectorTable(SimRef)
	fuzzMPKI                  // ask for vectorTable(SimMPKI), unless fuzzRef
)

// FuzzStoreLoad feeds arbitrary bytes to Load both as the local file for
// the requested key and as a peer's answer to the read-through fetcher.
// Load must never panic, and any table it returns must validate and
// carry exactly the requested identity — also on a second Load, which
// reads what the first one republished or left behind. The seed corpus
// sits in testdata/fuzz/FuzzStoreLoad; TestFuzzSeedsVectorTables and
// TestFuzzSeedsPopulationTables pin which of its seeds load.
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, local, remote []byte, mode byte) {
		s, want := fuzzStore(t, local, remote, mode)
		for range 2 {
			got, ok, err := s.Load(*want)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !ok {
				continue
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("Load returned an invalid table: %v", err)
			}
			if got.Identity != want.Identity {
				t.Fatalf("Load returned identity %+v, want %+v", got.Identity, want.Identity)
			}
		}
	})
}

// fuzzStore sets up one FuzzStoreLoad input: a store holding the local
// bytes and fetching the remote ones as mode says, and the table Load is
// to ask for.
func fuzzStore(t *testing.T, local, remote []byte, mode byte) (*Store, *IPCTable) {
	want := table()
	switch {
	case mode&fuzzRef != 0:
		want = vectorTable(SimRef)
	case mode&fuzzMPKI != 0:
		want = vectorTable(SimMPKI)
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if mode&fuzzLocal != 0 {
		if err := os.WriteFile(s.path(want.Key()), local, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s.SetFetch(func(string) ([]byte, bool, error) {
		if mode&fuzzFetchFail != 0 {
			return nil, false, errors.New("peer unreachable")
		}
		return remote, mode&fuzzFetchOK != 0, nil
	})
	return s, want
}

// TestFuzzSeedsVectorTables loads the reference IPC and MPKI seeds of
// FuzzStoreLoad's corpus: a valid ref table and an MPKI table holding a
// 0 load (from the local file or a peer), while a negative MPKI, a NaN
// MPKI and a ref row two values wide are refused.
func TestFuzzSeedsVectorTables(t *testing.T) {
	checkSeeds(t, map[string]bool{
		"local_ref_valid":      true,
		"remote_ref_valid":     true,
		"local_mpki_zero":      true,
		"remote_mpki_zero":     true,
		"local_mpki_negative":  false,
		"remote_mpki_negative": false,
		"local_mpki_nan":       false,
		"local_ref_wide_row":   false,
		"remote_ref_wide_row":  false,
	})
}

// TestFuzzSeedsPopulationTables loads the population-table seeds of
// FuzzStoreLoad's corpus. A valid table with its footer loads from the
// local file or a peer, also when a bit-flipped local file is first
// quarantined. Refused: a footer-less file, locally or from a peer; a
// peer's table carrying the sampling fields and CI column that builds
// before this format wrote; a peer's table of another identity; rows
// that do not match the population; and a failed fetch.
func TestFuzzSeedsPopulationTables(t *testing.T) {
	checkSeeds(t, map[string]bool{
		"local_valid":                true,
		"remote_valid":               true,
		"local_bitflip_remote_valid": true,
		"local_legacy":               false,
		"remote_no_footer":           false,
		"remote_sampled_identity":    false,
		"remote_other_identity":      false,
		"local_invalid_rows":         false,
		"remote_error":               false,
	})
}

// checkSeeds runs each named corpus seed through one Load and checks
// that it returns the requested table exactly when accept is true.
func checkSeeds(t *testing.T, seeds map[string]bool) {
	t.Helper()
	for seed, accept := range seeds {
		local, remote, mode := readSeed(t, seed)
		s, want := fuzzStore(t, local, remote, mode)
		got, ok, err := s.Load(*want)
		if err != nil || ok != accept || (ok && !reflect.DeepEqual(got, want)) {
			t.Errorf("%s: Load = %+v, %v, %v; want loaded %v", seed, got, ok, err, accept)
		}
	}
}

// readSeed parses one FuzzStoreLoad corpus file: two []byte values and a
// byte, in the "go test fuzz v1" encoding.
func readSeed(t *testing.T, name string) (local, remote []byte, mode byte) {
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzStoreLoad", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a three-value corpus file", name)
	}
	var vals [3]string
	for i, l := range lines[1:] {
		open := strings.IndexByte(l, '(')
		if open < 0 || !strings.HasSuffix(l, ")") {
			t.Fatalf("%s: bad value %q", name, l)
		}
		if vals[i], err = strconv.Unquote(l[open+1 : len(l)-1]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(vals[2]) != 1 {
		t.Fatalf("%s: mode %q is not one byte", name, vals[2])
	}
	return []byte(vals[0]), []byte(vals[1]), vals[2][0]
}
