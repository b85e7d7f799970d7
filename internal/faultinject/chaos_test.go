package faultinject_test

// The chaos harness: a campaign driven through kill/restart cycles,
// random cache-file corruption and seeded I/O faults must converge to
// results bit-identical to an undisturbed run, with zero duplicate
// sweeps once the cache has converged. This is the acceptance test the
// robustness layer exists for: every recovery path — torn-write
// checksums, quarantine-and-recompute, panic-free drain, restart from
// cache — exercised together, deterministically under one seed.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"mcbench/internal/cache"
	"mcbench/internal/experiments"
	"mcbench/internal/faultinject"
	"mcbench/internal/serve"
)

// chaosSeed fixes every injection decision; CI replays this exact
// campaign (see the chaos-smoke job).
const chaosSeed = 20130421

// chaosPolicies are the five sweeps of the campaign.
var chaosPolicies = []cache.PolicyName{cache.LRU, cache.FIFO, cache.Random, cache.DIP, cache.DRRIP}

var chaosRegisterOnce sync.Once

// registerChaosExperiment adds the campaign: five 2-core BADCO policy
// sweeps rendered into one deterministic table.
func registerChaosExperiment() {
	chaosRegisterOnce.Do(func() {
		experiments.Register(experiments.Experiment{
			Name: "chaostest", Synopsis: "five 2-core policy sweeps (chaos harness)", Group: experiments.GroupExtension,
			Requests: func(l *experiments.Lab, p experiments.Params) []experiments.Request {
				var reqs []experiments.Request
				for _, pol := range chaosPolicies {
					reqs = append(reqs, experiments.Request{Sim: experiments.SimBadco, Cores: 2, Policy: pol})
				}
				return reqs
			},
			Run: func(ctx context.Context, l *experiments.Lab, p experiments.Params) (*experiments.Table, error) {
				t := &experiments.Table{Title: "chaostest", Columns: []string{"policy", "rows", "sum"}}
				for _, pol := range chaosPolicies {
					tab, err := l.BadcoIPC(ctx, 2, pol)
					if err != nil {
						return nil, err
					}
					var sum float64
					for _, row := range tab {
						for _, v := range row {
							sum += v
						}
					}
					t.AddRow(string(pol), fmt.Sprint(len(tab)), fmt.Sprintf("%.9f", sum))
				}
				return t, nil
			},
		})
	})
}

// chaosServer builds a quick-config server over the cache directory.
func chaosServer(cacheDir string) *serve.Server {
	labCfg := experiments.QuickConfig()
	labCfg.TraceLen = 2000
	labCfg.CacheDir = cacheDir
	return serve.New(serve.Config{Lab: labCfg, Workers: 2, QueueDepth: 8})
}

// submitChaos posts the campaign job and returns its ID.
func submitChaos(t *testing.T, base string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"kind":       "experiment",
		"experiment": map[string]any{"name": "chaostest", "cores": 2},
	})
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit decode: %v\n%s", err, data)
	}
	return st.ID
}

// eventsPage is one long-poll page of a job's event log.
type eventsPage struct {
	State  serve.State   `json:"state"`
	Events []serve.Event `json:"events"`
}

// pollEvents fetches one page of the job's events past the cursor.
func pollEvents(t *testing.T, base, id string, after int, wait string) eventsPage {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/events?after=%d&wait=%s", base, id, after, wait))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d %s", resp.StatusCode, data)
	}
	var page eventsPage
	if err := json.Unmarshal(data, &page); err != nil {
		t.Fatalf("events decode: %v\n%s", err, data)
	}
	return page
}

// resultText fetches a done job's rendered text.
func resultText(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, data)
	}
	var res serve.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result decode: %v\n%s", err, data)
	}
	return res.Text
}

// runToDone drives one undisturbed campaign on a fresh server over dir
// and returns the result text and the sweeps that run executed.
func runToDone(t *testing.T, dir string) (text string, swept int64) {
	t.Helper()
	s := chaosServer(dir)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := submitChaos(t, ts.URL)
	deadline := time.Now().Add(180 * time.Second)
	after := 0
	for {
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish")
		}
		page := pollEvents(t, ts.URL, id, after, "2s")
		for _, ev := range page.Events {
			after = ev.Seq
		}
		if page.State.Terminal() {
			if page.State != serve.StateDone {
				t.Fatalf("campaign settled %s", page.State)
			}
			break
		}
	}
	badco, detailed := s.Lab().SweepCounts()
	return resultText(t, ts.URL, id), badco + detailed
}

// cacheFiles maps key → file bytes for every live table in dir
// (quarantined files excluded: they are corruption casualties, not
// results).
func cacheFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// corruptOneCacheFile flips bytes in the middle of the (sorted) i-th
// live cache file, wrapping around — a deterministic stand-in for a
// random bit-flip.
func corruptOneCacheFile(t *testing.T, dir string, i int) {
	t.Helper()
	var names []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return // nothing persisted yet this round
	}
	sort.Strings(names)
	path := filepath.Join(dir, names[i%len(names)])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		return
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCampaignConverges is the harness. Baseline: one undisturbed
// campaign into dirA. Chaos: the same campaign into dirB, driven
// through rounds of (arm seeded faults, start server, submit, kill the
// server mid-job, corrupt a cache file) — then one final faults-off
// round. The final round must converge to results bit-identical to the
// baseline (result text and every cache file), and a fresh server over
// the converged cache must serve the campaign with zero sweeps.
func TestChaosCampaignConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short")
	}
	registerChaosExperiment()
	dirA := t.TempDir()
	dirB := t.TempDir()

	baselineText, baselineSweeps := runToDone(t, dirA)
	if baselineSweeps == 0 {
		t.Fatal("baseline executed no sweeps — the campaign is vacuous")
	}

	// Chaos rounds: seeded faults armed, server killed mid-job, cache
	// corrupted between rounds.
	for round := 0; round < 3; round++ {
		plan := faultinject.NewPlan(chaosSeed + int64(round))
		plan.Rule("results.save.write", faultinject.Rule{TruncRate: 0.4})
		plan.Rule("results.save", faultinject.Rule{ErrorRate: 0.2})
		plan.Rule("results.load", faultinject.Rule{ErrorRate: 0.3})
		plan.Rule("serve.job", faultinject.Rule{SleepRate: 1, Sleep: 2 * time.Millisecond})
		faultinject.Enable(plan)

		s := chaosServer(dirB)
		ts := httptest.NewServer(s.Handler())
		id := submitChaos(t, ts.URL)
		// Let the job make partial progress — at most a few products —
		// then kill the server out from under it.
		page := pollEvents(t, ts.URL, id, 0, "300ms")
		_ = page
		s.Drain() // cancels in-flight work; completed sweeps are on disk
		ts.Close()
		faultinject.Disable()

		corruptOneCacheFile(t, dirB, round)
	}

	// Final round, faults off: the campaign must converge.
	chaosText, _ := runToDone(t, dirB)
	if chaosText != baselineText {
		t.Fatalf("chaos result diverged from baseline:\n--- baseline ---\n%s\n--- chaos ---\n%s", baselineText, chaosText)
	}
	filesA := cacheFiles(t, dirA)
	filesB := cacheFiles(t, dirB)
	if len(filesA) == 0 {
		t.Fatal("baseline persisted no tables")
	}
	if len(filesA) != len(filesB) {
		t.Fatalf("cache diverged: %d baseline files vs %d chaos files", len(filesA), len(filesB))
	}
	for name, a := range filesA {
		b, ok := filesB[name]
		if !ok {
			t.Fatalf("chaos cache missing %s", name)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("cache file %s is not bit-identical after chaos", name)
		}
	}

	// Zero duplicate work: a fresh server over the converged cache
	// serves the whole campaign from disk.
	_, sweeps := runToDone(t, dirB)
	if sweeps != 0 {
		t.Fatalf("converged cache still cost %d sweeps, want 0", sweeps)
	}
}
