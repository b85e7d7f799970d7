// Package results persists the expensive intermediate products of the
// experimental campaign — per-workload per-core IPC tables — as JSON, so
// population sweeps survive across process runs. A Store is keyed by
// (simulator, core count, policy, trace length, population size); any
// parameter change invalidates the entry by construction of the key.
package results

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcbench/internal/faultinject"
	"mcbench/internal/multicore"
	"mcbench/internal/telemetry"
)

// Identity is what names a sweep result: the configuration it was
// computed under. Two tables with equal identities are interchangeable,
// and Load serves a stored table only when its identity equals the
// requested one. Identity is comparable, and loads compare it raw, not by
// Key: sanitize collapses distinct source names ("dir:a/b" and
// "dir:a_b") onto one file name, and the raw comparison keeps such a
// collision from serving the other source's table.
type Identity struct {
	Simulator  string `json:"simulator"` // "detailed" or "badco"
	Cores      int    `json:"cores"`
	Policy     string `json:"policy"`
	TraceLen   int    `json:"trace_len"`
	Population int    `json:"population"`
	Seed       int64  `json:"seed"`
	// Universe is the size of the population the rows were sampled
	// from, when the table covers only a sample (e.g. the detailed
	// simulator's subset). 0 means the rows are the whole population.
	// Without it, two configurations whose populations differ but whose
	// sample sizes coincide would collide on one key and serve each
	// other stale tables.
	Universe int `json:"universe,omitempty"`
	// Source identifies the benchmark source the table was swept over
	// ("scaled:64:7", "dir:..."). Empty means the default fixed suite,
	// keeping tables persisted before sources existed loadable.
	Source string `json:"source,omitempty"`
	// Warmup is the per-core µop count each workload ran before its
	// measurement began (see experiments.Config.Warmup). 0 — measurement
	// from reset — leaves keys identical to pre-warmup versions, so
	// existing cache files stay loadable.
	Warmup int `json:"warmup,omitempty"`
	// SampleUnit/SampleWindow/SampleWarmup/SampleWarm record the
	// systematic-sampling spec the sweep ran under
	// (multicore.SamplingSpec); all zero means an exact sweep, keeping
	// pre-sampling keys and files unchanged. A sampled table is an
	// *estimate*, so the spec is identity: an exact and a sampled sweep
	// of the same configuration must never share a cache entry.
	SampleUnit   int `json:"sample_unit,omitempty"`
	SampleWindow int `json:"sample_window,omitempty"`
	SampleWarmup int `json:"sample_warmup,omitempty"`
	SampleWarm   int `json:"sample_warm,omitempty"`
}

// IPCTable is one sweep result: row per workload, column per core. The
// embedded Identity names the sweep; its fields encode first, so the
// JSON form is flat.
type IPCTable struct {
	Identity
	IPC [][]float64 `json:"ipc"`
	// CI and CV carry the per-workload per-core confidence half-interval
	// and coefficient of variation of sampled sweeps (same shape as IPC);
	// both are empty for exact sweeps, whose IPC is not an estimate.
	CI [][]float64 `json:"ci,omitempty"`
	CV [][]float64 `json:"cv,omitempty"`
}

// Key returns the filename-safe form of the identity. Non-default sources
// append their sanitized name plus a short hash of the raw name:
// sanitization is lossy ("dir:a/b" and "dir:a_b" collapse), and
// without the hash two such sources would alternately clobber each
// other's cache file.
func (t Identity) Key() string {
	key := fmt.Sprintf("%s-c%d-%s-l%d-p%d-s%d",
		t.Simulator, t.Cores, t.Policy, t.TraceLen, t.Population, t.Seed)
	if t.Universe > 0 {
		key += fmt.Sprintf("-u%d", t.Universe)
	}
	key += multicore.Spec{Warmup: uint64(max(t.Warmup, 0)), Sampling: t.sampling()}.Protocol("-")
	if t.Source != "" {
		h := fnv.New32a()
		h.Write([]byte(t.Source))
		key += fmt.Sprintf("-%s-%08x", sanitize(t.Source), h.Sum32())
	}
	return key
}

// sampling is the sampling spec the identity records. A negative field,
// which Validate rejects, converts to a huge one.
func (t Identity) sampling() multicore.SamplingSpec {
	return multicore.SamplingSpec{
		Unit: uint64(t.SampleUnit), Window: uint64(t.SampleWindow),
		Warmup: uint64(t.SampleWarmup), Warm: uint64(t.SampleWarm),
	}
}

// sanitize maps a source name onto the filename-safe alphabet (source
// specs carry ':' and, for dir sources, path separators).
func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Validate reports structural problems.
func (t *IPCTable) Validate() error {
	if t.Simulator == "" || t.Policy == "" {
		return fmt.Errorf("results: empty simulator or policy")
	}
	if t.Cores <= 0 || t.TraceLen <= 0 {
		return fmt.Errorf("results: non-positive cores or trace length")
	}
	if len(t.IPC) != t.Population {
		return fmt.Errorf("results: %d rows for population %d", len(t.IPC), t.Population)
	}
	if t.Universe > 0 && t.Population > t.Universe {
		return fmt.Errorf("results: population %d above universe %d", t.Population, t.Universe)
	}
	for i, row := range t.IPC {
		if len(row) != t.Cores {
			return fmt.Errorf("results: row %d has %d cores, want %d", i, len(row), t.Cores)
		}
		for k, v := range row {
			if v <= 0 {
				return fmt.Errorf("results: non-positive IPC at [%d][%d]", i, k)
			}
		}
	}
	if t.SampleUnit < 0 || t.SampleWindow < 0 || t.SampleWarmup < 0 || t.SampleWarm < 0 {
		return fmt.Errorf("results: negative sampling field")
	}
	if err := t.sampling().Validate(); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	for name, col := range map[string][][]float64{"ci": t.CI, "cv": t.CV} {
		if len(col) == 0 {
			continue
		}
		if t.SampleUnit == 0 {
			return fmt.Errorf("results: %s column on an exact table", name)
		}
		if len(col) != t.Population {
			return fmt.Errorf("results: %d %s rows for population %d", len(col), name, t.Population)
		}
		for i, row := range col {
			if len(row) != t.Cores {
				return fmt.Errorf("results: %s row %d has %d cores, want %d", name, i, len(row), t.Cores)
			}
		}
	}
	return nil
}

// Store is a directory of JSON result files.
type Store struct {
	dir string

	// listCache memoizes decoded List entries per file, keyed by
	// (size, mtime): repeated listings of a big cache directory (the
	// serve /cache endpoint) re-read only files that changed instead of
	// every table on every call.
	mu        sync.Mutex
	listCache map[string]listCached

	// fetch, when set, is the read-through hook Load consults on a local
	// miss before reporting absence (see SetFetch).
	fetch Fetcher

	// tel holds the store's operation counters (an atomic pointer so
	// Instrument can rebind them without racing in-flight operations).
	tel atomic.Pointer[storeMetrics]
}

// storeMetrics are the per-registry operation counters of one store.
type storeMetrics struct {
	saves       *telemetry.Counter
	saveSeconds *telemetry.Histogram
	loadHits    *telemetry.Counter
	loadMisses  *telemetry.Counter
	readThrough *telemetry.Counter
	quarantines *telemetry.Counter
}

func newStoreMetrics(r *telemetry.Registry) *storeMetrics {
	return &storeMetrics{
		saves:       r.Counter("mcbench_store_saves_total", "Tables persisted by the results store."),
		saveSeconds: r.Histogram("mcbench_store_save_seconds", "Latency of staged fsync-rename table saves."),
		loadHits:    r.Counter("mcbench_store_load_hits_total", "Loads satisfied from the local store directory."),
		loadMisses:  r.Counter("mcbench_store_load_misses_total", "Loads that found no usable table anywhere."),
		readThrough: r.Counter("mcbench_store_fabric_readthrough_total", "Loads satisfied by the fleet's remote result fabric."),
		quarantines: r.Counter("mcbench_store_quarantines_total", "Corrupt files moved into the quarantine directory."),
	}
}

// Instrument rebinds the store's operation counters to the given
// registry (they start on telemetry.Default). A serve node calls this
// so its /metrics reflects its own store, isolated from any other
// store in the process.
func (s *Store) Instrument(r *telemetry.Registry) {
	s.tel.Store(newStoreMetrics(r))
}

// Fetcher retrieves the raw stored bytes of a content key from a remote
// peer: ok is false on a plain miss, err only on infrastructure failure
// (both make Load fall back to local compute — remote reads are an
// optimisation, never a correctness dependency). The returned bytes must
// be a whole stored file, integrity footer included; Load verifies the
// CRC32-C footer and the table identity before trusting them.
type Fetcher func(key string) (data []byte, ok bool, err error)

// SetFetch installs the read-through fetcher consulted by Load on local
// misses. The fleet wires a coordinator's store to fetch from its
// workers (and each worker's store to fetch from the coordinator), so
// any node can serve any table whichever node computed it.
func (s *Store) SetFetch(f Fetcher) {
	s.mu.Lock()
	s.fetch = f
	s.mu.Unlock()
}

// listCached is one memoized List entry with the stat that validated it.
type listCached struct {
	size  int64
	mod   time.Time
	entry Entry
}

// staleTempAge is how old a staging file must be before Open reclaims
// it. Fresh temp files may belong to a concurrent writer mid-Save;
// anything this old is an orphan from an interrupted run.
const staleTempAge = time.Hour

// Open creates (if needed) and opens a store rooted at dir, reclaiming
// staging files stranded by interrupted runs.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("results: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	s := &Store{dir: dir}
	s.tel.Store(newStoreMetrics(telemetry.Default()))
	s.removeStaleTemp()
	return s, nil
}

// removeStaleTemp deletes orphaned staging files (best-effort): each
// Save stages through a uniquely named *.tmp file, so a crash between
// create and rename strands it forever unless someone sweeps.
func (s *Store) removeStaleTemp() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".tmp" {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < staleTempAge {
			continue
		}
		os.Remove(filepath.Join(s.dir, e.Name()))
	}
}

// path returns the file path of a key.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Integrity footer. Every file the store writes ends with a fixed-width
// CRC32-C line over the payload that precedes it, so Load can tell a
// complete table from a torn or bit-flipped one before decoding. The
// footer sits *after* the payload (a trailing line a JSON decoder never
// reaches), so files written by older versions — no footer at all —
// keep loading unchanged; only a present-but-wrong footer is corruption.
const (
	footerMagic = "\nmcbench-crc32:"
	footerLen   = len(footerMagic) + 8 + 1 // magic + 8 hex digits + "\n"
)

// crcTable is Castagnoli (CRC32-C), hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFooter returns the payload with its integrity footer.
func appendFooter(payload []byte) []byte {
	sum := crc32.Checksum(payload, crcTable)
	return fmt.Appendf(payload, "%s%08x\n", footerMagic, sum)
}

// splitFooter detects and verifies the integrity footer. hasFooter is
// false for legacy footer-less files (payload is then the whole input);
// valid is meaningful only when hasFooter is true.
func splitFooter(data []byte) (payload []byte, hasFooter, valid bool) {
	if len(data) < footerLen {
		return data, false, false
	}
	tail := data[len(data)-footerLen:]
	if string(tail[:len(footerMagic)]) != footerMagic || tail[footerLen-1] != '\n' {
		return data, false, false
	}
	// Strict parse: all 8 digits must be hex, or this is not a footer.
	sum, err := strconv.ParseUint(string(tail[len(footerMagic):footerLen-1]), 16, 32)
	if err != nil {
		return data, false, false
	}
	payload = data[:len(data)-footerLen]
	return payload, true, crc32.Checksum(payload, crcTable) == uint32(sum)
}

// QuarantineDir is the store subdirectory corrupt files are moved into.
const QuarantineDir = "quarantine"

// quarantine moves a corrupt file out of the live directory instead of
// letting it poison every future Load (or silently serving garbage).
// The original base name survives so operators can tell which key was
// hit; a numeric suffix avoids clobbering an earlier quarantined
// generation of the same file. Best-effort: if the move fails the file
// is removed outright — a corrupt file must never stay live.
func (s *Store) quarantine(path string) {
	s.tel.Load().quarantines.Inc()
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
		return
	}
	base := filepath.Base(path)
	dst := filepath.Join(qdir, base)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

// syncDir fsyncs the store directory, making a just-renamed file's
// directory entry durable. Without it a power loss shortly after Save
// returns can roll the rename back — the rename is atomic, not durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Save writes the table, replacing any previous version atomically and
// durably. Each writer stages through its own uniquely named temporary
// file, so concurrent saves of the same key (parallel campaign workers,
// or several processes sharing one cache directory) never clobber each
// other's staging data: whichever rename lands last wins, and readers
// always see a complete file. The staged bytes carry an integrity
// footer and are fsynced (file, then directory) before and after the
// rename, so a power loss after Save returns cannot lose or tear the
// published table.
//
// Fault-injection sites: "results.save" (fail the save outright),
// "results.save.write" (tear the staged write — the published file then
// fails its checksum and Load quarantines it).
func (s *Store) Save(t *IPCTable) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if err := faultinject.Error("results.save"); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	data, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	start := time.Now()
	if err := s.publish(t.Key()+"-*.tmp", s.path(t.Key()), appendFooter(data), "results.save.write"); err != nil {
		return err
	}
	tel := s.tel.Load()
	tel.saves.Inc()
	tel.saveSeconds.ObserveDuration(time.Since(start))
	return nil
}

// publish stages buf through a uniquely named temp file and renames it
// onto dst, fsyncing the file before and the directory after the rename.
// tornSite names the fault-injection point that may tear the write.
func (s *Store) publish(tmpPattern, dst string, buf []byte, tornSite string) error {
	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if _, err := tmp.Write(buf[:faultinject.Truncate(tornSite, len(buf))]); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("results: %w", err)
	}
	// fsync the payload before rename: rename is atomic with respect to
	// readers but says nothing about durability — without the sync a
	// power loss can publish a name pointing at unwritten blocks.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("results: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: %w", err)
	}
	// CreateTemp makes the file 0600; published tables must stay
	// group/world-readable so several users can share a cache directory.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

// Load reads the table with the given identity; ok is false when absent.
// A corrupt file — torn write, bit flip, failed checksum, undecodable or
// structurally invalid content — is quarantined into QuarantineDir and
// reported as absent, never as an error and never as a wrong table: the
// caller recomputes and the next Save republishes a good file.
//
// Fault-injection site: "results.load" (fail the read as an I/O error).
func (s *Store) Load(proto IPCTable) (*IPCTable, bool, error) {
	path := s.path(proto.Key())
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s.loadRemote(proto)
	}
	if err != nil {
		return nil, false, fmt.Errorf("results: %w", err)
	}
	if err := faultinject.Error("results.load"); err != nil {
		return nil, false, fmt.Errorf("results: %w", err)
	}
	payload, hasFooter, valid := splitFooter(data)
	if hasFooter && !valid {
		s.quarantine(path)
		return s.loadRemote(proto)
	}
	var t IPCTable
	if err := json.Unmarshal(payload, &t); err != nil {
		s.quarantine(path)
		return s.loadRemote(proto)
	}
	if err := t.Validate(); err != nil {
		s.quarantine(path)
		return s.loadRemote(proto)
	}
	if t.Identity != proto.Identity {
		// Not corruption: sanitize collapses distinct source names onto
		// one filename, and this file is the *other* source's valid
		// table. Report a miss; the recompute will overwrite it.
		return s.loadRemote(proto)
	}
	s.tel.Load().loadHits.Inc()
	return &t, true, nil
}

// loadRemote consults the read-through fetcher after a local miss. Every
// failure mode — no fetcher, remote miss, transport error, bad checksum,
// identity mismatch — reports a plain miss so the caller recomputes
// locally: the fleet fabric is an optimisation, never a correctness
// dependency. A verified fetch is republished locally (best-effort)
// through the same staged fsync-rename path as Save, so the next load is
// a local hit.
//
// Fault-injection site: "results.fetch.write" (tear the local republish).
func (s *Store) loadRemote(proto IPCTable) (*IPCTable, bool, error) {
	t, ok := s.fetchRemote(proto)
	tel := s.tel.Load()
	if ok {
		tel.readThrough.Inc()
		return t, true, nil
	}
	tel.loadMisses.Inc()
	return nil, false, nil
}

// fetchRemote is loadRemote's uncounted body: fetch, verify, republish.
func (s *Store) fetchRemote(proto IPCTable) (*IPCTable, bool) {
	s.mu.Lock()
	fetch := s.fetch
	s.mu.Unlock()
	if fetch == nil {
		return nil, false
	}
	key := proto.Key()
	data, ok, err := fetch(key)
	if err != nil || !ok {
		return nil, false
	}
	// Stricter than local loads: ReadRaw stamps a footer on every wire
	// response, so footer-less remote bytes are not legacy files — they
	// are truncation or a non-store response, and are rejected.
	payload, hasFooter, valid := splitFooter(data)
	if !hasFooter || !valid {
		return nil, false
	}
	var t IPCTable
	if err := json.Unmarshal(payload, &t); err != nil {
		return nil, false
	}
	if t.Validate() != nil || t.Identity != proto.Identity {
		return nil, false
	}
	s.publish(key+"-*.tmp", s.path(key), data, "results.fetch.write")
	return &t, true
}

// ErrBadKey reports a ReadRaw key outside the store's filename-safe
// alphabet (an HTTP handler maps it to 400, distinct from a 404 miss).
var ErrBadKey = errors.New("results: invalid key")

// validKey reports whether key is a plausible store key: non-empty and
// confined to the same alphabet sanitize emits, which by construction
// excludes path separators and dot-traversal.
func validKey(key string) bool {
	if key == "" || key == "." || key == ".." {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// ReadRaw returns the stored bytes of key exactly as a remote peer must
// receive them: payload plus integrity footer. It is strictly local — it
// never consults the read-through fetcher — so two stores fetching from
// each other cannot loop. Legacy footer-less files are stamped with a
// footer on the way out, keeping every wire response verifiable; a file
// with a present-but-wrong footer is quarantined and reported absent.
func (s *Store) ReadRaw(key string) ([]byte, bool, error) {
	if !validKey(key) {
		return nil, false, ErrBadKey
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("results: %w", err)
	}
	payload, hasFooter, valid := splitFooter(data)
	if hasFooter && !valid {
		s.quarantine(path)
		return nil, false, nil
	}
	if !hasFooter {
		return appendFooter(payload), true, nil
	}
	return data, true, nil
}

// Entry describes one stored table for listings: the filename key plus
// the raw identity fields, so a cache browser can report what a
// directory actually holds. Keys() alone cannot — sanitize is lossy, so
// a sanitized name cannot be mapped back to its source spec.
type Entry struct {
	// Key is the filename-safe identity (the stored file is Key+".json").
	Key string `json:"key"`
	// Table carries the identity fields of the stored table — simulator,
	// cores, policy, trace length, population, seed, universe, source —
	// with the IPC rows dropped (Population still records the row count).
	Table IPCTable `json:"table"`
	// Bytes and ModTime describe the file itself.
	Bytes   int64     `json:"bytes"`
	ModTime time.Time `json:"mod_time"`
	// Corrupt marks a file that exists but does not decode, fails its
	// integrity footer, or whose content does not match its filename;
	// its Table is zero. Listing surfaces it instead of hiding it so
	// operators can clean up.
	Corrupt bool `json:"corrupt,omitempty"`
	// Quarantined marks a file Load moved into the quarantine
	// subdirectory after it failed verification. Quarantined entries are
	// listed (they tell an operator data was lost to corruption and
	// recomputed) but never served.
	Quarantined bool `json:"quarantined,omitempty"`
}

// List returns one identity-preserving entry per stored table, sorted by
// key. It reports the raw identity fields (spec, cores, policy,
// source, ...), which is what the serve /cache endpoint and list-style
// tooling show. Only the identity fields are decoded — the
// IPC rows are skipped — an entry whose content does not match its
// filename identity is marked Corrupt rather than served as something
// it is not, and unchanged files (same size and mtime) are served from
// a per-store memo instead of being re-read on every call.
func (s *Store) List() ([]Entry, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := make(map[string]listCached, len(entries))
	var out []Entry
	for _, de := range entries {
		name := de.Name()
		if filepath.Ext(name) != ".json" {
			continue
		}
		e := Entry{Key: name[:len(name)-len(".json")]}
		info, statErr := de.Info()
		if statErr == nil {
			e.Bytes = info.Size()
			e.ModTime = info.ModTime()
			// An unchanged file keeps its memoized entry: no re-read.
			if c, ok := s.listCache[name]; ok && c.size == info.Size() && c.mod.Equal(info.ModTime()) {
				fresh[name] = c
				out = append(out, c.entry)
				continue
			}
		}
		e.decodeIdentity(filepath.Join(s.dir, name))
		out = append(out, e)
		if statErr == nil {
			fresh[name] = listCached{size: e.Bytes, mod: e.ModTime, entry: e}
		}
	}
	// Entries for files that vanished fall out of the cache here.
	s.listCache = fresh
	out = append(out, s.listQuarantine()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// listQuarantine reports the quarantined files as entries: Corrupt and
// Quarantined set, identity zero (the content already failed
// verification — decoding it again would lend it false credibility).
func (s *Store) listQuarantine() []Entry {
	entries, err := os.ReadDir(filepath.Join(s.dir, QuarantineDir))
	if err != nil {
		return nil
	}
	var out []Entry
	for _, de := range entries {
		name := de.Name()
		e := Entry{
			Key:         QuarantineDir + "/" + strings.TrimSuffix(name, ".json"),
			Corrupt:     true,
			Quarantined: true,
		}
		if info, err := de.Info(); err == nil {
			e.Bytes = info.Size()
			e.ModTime = info.ModTime()
		}
		out = append(out, e)
	}
	return out
}

// decodeIdentity fills the entry's identity (or Corrupt flag) from one
// stored file, decoding only the identity fields and verifying the
// integrity footer when present.
func (e *Entry) decodeIdentity(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		e.Corrupt = true
		return
	}
	payload, hasFooter, valid := splitFooter(data)
	if hasFooter && !valid {
		e.Corrupt = true
		return
	}
	var id Identity
	if json.Unmarshal(payload, &id) != nil || id.Simulator == "" || id.Key() != e.Key {
		e.Corrupt = true
		return
	}
	e.Table = IPCTable{Identity: id}
}
