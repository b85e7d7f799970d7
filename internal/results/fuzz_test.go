package results

import (
	"errors"
	"os"
	"testing"
)

// Fuzz modes: which side of the read-through path holds the bytes.
const (
	fuzzLocal     = 1 << iota // the bytes sit in the local file for the key
	fuzzFetchOK               // the fetcher returns its bytes as a hit
	fuzzFetchFail             // the fetcher fails with a transport error
)

// FuzzStoreLoad feeds arbitrary bytes to Load both as the local file for
// the requested key and as a peer's answer to the read-through fetcher.
// Load must never panic, and any table it returns must validate and
// carry exactly the requested identity — also on a second Load, which
// reads what the first one republished or left behind. The seed corpus
// sits in testdata/fuzz/FuzzStoreLoad.
func FuzzStoreLoad(f *testing.F) {
	want := table()
	f.Fuzz(func(t *testing.T, local, remote []byte, mode byte) {
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
