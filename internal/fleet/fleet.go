package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"mcbench/internal/buildinfo"
	"mcbench/internal/telemetry"
)

// Defaults for the coordinator's timing knobs.
const (
	// DefaultHeartbeat is the interval workers beat at when the config
	// leaves it zero.
	DefaultHeartbeat = 5 * time.Second
	// missedBeats is how many consecutive heartbeat intervals a member
	// may miss before it is reaped as dead.
	missedBeats = 3
	// MaxAddrLen bounds a joining worker's advertised address. A join
	// is unauthenticated and its member is kept until the lease lapses,
	// so the address must not let one request pin arbitrary memory; a
	// host name (at most 253 bytes) and a port fit well inside.
	MaxAddrLen = 512
	// MaxMembers bounds the live members a coordinator keeps, for the
	// same reason. A member costs about 1.9 KB of heap at the longest
	// address (4 096 joins through the HTTP dialer with 512-byte
	// addresses: the address is held twice, by the member and by its
	// client, beside about 900 bytes of member, client and map entry),
	// so a full fleet pins at most 2 MiB; shard dispatch and the metrics
	// scrape fan out over every member, so the bound caps their width
	// too.
	MaxMembers = 1024
)

// Config parameterises a Coordinator.
type Config struct {
	// Build is the coordinator's own build identity; joins must match it
	// exactly.
	Build buildinfo.Info
	// Lab pins the lab identity joins must match.
	Lab
	// Heartbeat is the interval granted to joining workers (0 →
	// DefaultHeartbeat). A member missing missedBeats consecutive
	// intervals is reaped.
	Heartbeat time.Duration
	// StealAfter bounds how long a dispatched shard may run before the
	// coordinator steals it from the straggler (0 → never steal on time,
	// only on death).
	StealAfter time.Duration
	// Dial opens a Peer for a worker's advertised address.
	Dial Dialer
}

// member is one registered worker.
type member struct {
	id       string
	addr     string
	peer     Peer
	lastBeat time.Time
}

// Coordinator tracks fleet membership and dispatches sharded warm work.
// All methods are safe for concurrent use.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member // by id
	seq     int                // member id sequence

	stolen int64 // shards re-issued after death or straggle (for health)
}

// NewCoordinator creates a coordinator. Dial must be non-nil.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	return &Coordinator{cfg: cfg, members: make(map[string]*member)}
}

// Join registers a worker. A mismatched build or lab identity fails with
// ErrIncompatible. Re-joining with an address already registered
// replaces the old membership (the worker restarted, or its previous
// lease was reaped and it is recovering) rather than accumulating a
// ghost entry. A join from a new address while MaxMembers members hold
// live leases fails with a plain error; the worker retries it.
func (c *Coordinator) Join(req JoinRequest) (*JoinResponse, error) {
	if req.Build != c.cfg.Build {
		return nil, fmt.Errorf("%w: worker build %s, coordinator build %s",
			ErrIncompatible, req.Build, c.cfg.Build)
	}
	if req.Lab != c.cfg.Lab {
		return nil, fmt.Errorf("%w: worker lab %+v, coordinator lab %+v", ErrIncompatible, req.Lab, c.cfg.Lab)
	}
	if req.Addr == "" {
		return nil, fmt.Errorf("fleet: join without an advertised address")
	}
	if len(req.Addr) > MaxAddrLen {
		return nil, fmt.Errorf("fleet: advertised address of %d bytes exceeds %d", len(req.Addr), MaxAddrLen)
	}
	peer, err := c.cfg.Dial(req.Addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: dial %s: %w", req.Addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, m := range c.members {
		if m.addr == req.Addr {
			delete(c.members, id)
		}
	}
	if len(c.members) >= MaxMembers {
		c.reap()
		if len(c.members) >= MaxMembers {
			return nil, fmt.Errorf("fleet: %d members already joined, the most a coordinator keeps", len(c.members))
		}
	}
	c.seq++
	m := &member{
		id:       fmt.Sprintf("w%03d", c.seq),
		addr:     req.Addr,
		peer:     peer,
		lastBeat: time.Now(),
	}
	c.members[m.id] = m
	return &JoinResponse{ID: m.id, Heartbeat: c.cfg.Heartbeat}, nil
}

// Beat renews a member's liveness lease; false if the id is unknown
// (reaped, or the coordinator restarted) — the worker should re-join.
func (c *Coordinator) Beat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		return false
	}
	m.lastBeat = time.Now()
	return true
}

// Leave deregisters a member (unknown ids are a no-op).
func (c *Coordinator) Leave(id string) {
	c.mu.Lock()
	delete(c.members, id)
	c.mu.Unlock()
}

// live returns the live members (reaping any whose lease lapsed), sorted
// by id for deterministic iteration.
func (c *Coordinator) live() []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	var out []*member
	for _, m := range c.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// reap drops the members whose lease lapsed. c.mu must be held.
func (c *Coordinator) reap() {
	deadline := time.Now().Add(-time.Duration(missedBeats) * c.cfg.Heartbeat)
	for id, m := range c.members {
		if m.lastBeat.Before(deadline) {
			delete(c.members, id)
		}
	}
}

// alive reports whether the member still holds a live lease. Used by
// in-flight shard dispatches to notice their worker died.
func (c *Coordinator) alive(id string) bool {
	deadline := time.Now().Add(-time.Duration(missedBeats) * c.cfg.Heartbeat)
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	return ok && !m.lastBeat.Before(deadline)
}

// Peers returns the number of live members.
func (c *Coordinator) Peers() int { return len(c.live()) }

// Stolen returns how many shards have been re-issued after a worker
// death or straggle.
func (c *Coordinator) Stolen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stolen
}

// addStolen counts n re-issued shards.
func (c *Coordinator) addStolen(n int64) {
	c.mu.Lock()
	c.stolen += n
	c.mu.Unlock()
}

// MetricsFetcher is the optional Peer extension the coordinator's
// telemetry aggregation uses: a peer that can fetch the remote node's
// metrics snapshot (GET /metrics?format=json in production). Optional —
// asserted at scrape time — so Peer test doubles that predate it keep
// compiling; a peer without it scrapes as "not exposed", never an error.
type MetricsFetcher interface {
	FetchMetrics(ctx context.Context) (*telemetry.Snapshot, error)
}

// WorkerScrape is one worker's row of a fleet metrics scrape. Snapshot
// is nil when the peer does not implement MetricsFetcher or when Err is
// set (the scrape failed).
type WorkerScrape struct {
	ID           string
	Addr         string
	HeartbeatAge time.Duration
	Snapshot     *telemetry.Snapshot
	Err          error
}

// Scrape fetches every registered worker's metrics snapshot, in
// parallel, and returns the rows sorted by member id. Membership is
// snapshotted once under the lock (heartbeat ages included) and the
// network fan-out happens outside it, so a slow worker never blocks
// joins or beats. Dead-but-unreaped members appear with their stale
// heartbeat age — the caller sees the staleness rather than a silently
// shorter list.
func (c *Coordinator) Scrape(ctx context.Context) []WorkerScrape {
	now := time.Now()
	c.mu.Lock()
	rows := make([]WorkerScrape, 0, len(c.members))
	peers := make([]Peer, 0, len(c.members))
	for _, m := range c.members {
		rows = append(rows, WorkerScrape{ID: m.id, Addr: m.addr, HeartbeatAge: now.Sub(m.lastBeat)})
		peers = append(peers, m.peer)
	}
	c.mu.Unlock()
	sort.Sort(&scrapeSort{rows, peers})
	var wg sync.WaitGroup
	for i := range rows {
		mf, ok := peers[i].(MetricsFetcher)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(row *WorkerScrape, mf MetricsFetcher) {
			defer wg.Done()
			row.Snapshot, row.Err = mf.FetchMetrics(ctx)
		}(&rows[i], mf)
	}
	wg.Wait()
	return rows
}

// scrapeSort orders scrape rows (and their parallel peer slice) by id.
type scrapeSort struct {
	rows  []WorkerScrape
	peers []Peer
}

func (s *scrapeSort) Len() int           { return len(s.rows) }
func (s *scrapeSort) Less(i, j int) bool { return s.rows[i].ID < s.rows[j].ID }
func (s *scrapeSort) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.peers[i], s.peers[j] = s.peers[j], s.peers[i]
}

// Fetch retrieves the raw stored bytes of a content key from the fleet,
// trying live members in rendezvous order for the key (the owner first —
// if anyone computed the table, the owner did). It is the coordinator's
// read-through hook for its local store. Misses and per-peer errors fall
// through to the next candidate; exhausting the fleet is a plain miss.
func (c *Coordinator) Fetch(ctx context.Context, key string) ([]byte, bool, error) {
	for _, m := range rankMembers(c.live(), key) {
		data, ok, err := m.peer.FetchCache(ctx, key)
		if err == nil && ok {
			return data, true, nil
		}
		if ctx.Err() != nil {
			return nil, false, nil
		}
	}
	return nil, false, nil
}
