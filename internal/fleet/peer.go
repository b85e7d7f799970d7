// Package fleet coordinates a set of mcbench serve nodes into one
// distributed lab. A Coordinator tracks worker membership (heartbeat
// registration with lease-style liveness), partitions a campaign's
// shardable products across the live workers by rendezvous-hashing their
// content keys, dispatches the shards as warm jobs through injected
// peers, and re-issues the shards of dead or straggling workers to the
// remaining nodes (work-stealing). Results converge through the
// content-addressed result fabric: every node persists tables under
// identical keys, and any node reads any table via the /cache/{key}
// read-through, so the coordinator's local warm after a fleet dispatch
// is all cache hits in the happy path and plain local compute in every
// failure mode — the fleet is an optimisation, never a correctness
// dependency.
//
// The package speaks to peers through the Peer interface so it does not
// import the HTTP client (which lives in the public mcbench package, a
// downstream importer of this one); the root package injects a Dialer
// backed by mcbench.Client, inheriting its retries and backoff.
package fleet

import (
	"context"
	"errors"
	"time"

	"mcbench/internal/buildinfo"
	"mcbench/internal/experiments"
)

// Peer is the coordinator's view of one remote serve node, and the
// agent's view of its coordinator. Implementations wrap an HTTP client
// (mcbench.Client in production, a test double in tests).
type Peer interface {
	// Join registers with a coordinator and returns the granted member
	// identity and heartbeat interval. An incompatible build or lab
	// configuration fails with an error wrapping ErrIncompatible.
	Join(ctx context.Context, req JoinRequest) (*JoinResponse, error)
	// Heartbeat renews the member's liveness lease. An unknown member id
	// (coordinator restarted, or the member was reaped) is an error; the
	// agent re-joins.
	Heartbeat(ctx context.Context, id string) error
	// Leave deregisters the member (best-effort on shutdown).
	Leave(ctx context.Context, id string) error
	// SubmitWarm submits a warm job for the given products and returns
	// the job id (dedup on the remote coalesces identical shards).
	SubmitWarm(ctx context.Context, products []experiments.Request) (jobID string, err error)
	// WaitJob blocks until the job reaches a terminal state, failing if
	// that state is not done.
	WaitJob(ctx context.Context, jobID string) error
	// CancelJob requests cancellation of a job (best-effort, used when a
	// shard is stolen from a straggler).
	CancelJob(ctx context.Context, jobID string) error
	// FetchCache retrieves the raw stored bytes of a content key;
	// ok=false is a plain miss.
	FetchCache(ctx context.Context, key string) (data []byte, ok bool, err error)
}

// Dialer opens a Peer for a worker's advertised address. Injected by the
// root package (backed by mcbench.NewClient) to avoid an import cycle.
type Dialer func(addr string) (Peer, error)

// JoinRequest is a worker's registration handshake. Build carries the
// worker's `mcbench version` identity and the lab fields pin the
// experiment configuration; the coordinator rejects any mismatch with
// ErrIncompatible, because nodes with different builds or lab configs
// would compute different bytes for the same content key and poison the
// shared fabric.
type JoinRequest struct {
	// Addr is the worker's advertised listen address, reachable from the
	// coordinator.
	Addr  string         `json:"addr"`
	Build buildinfo.Info `json:"build"`
	// Lab is the identity of the worker's lab.
	Lab
}

// Lab is the lab configuration every node of a fleet must share: nodes
// whose labs differ compute different bytes for the same content key. It
// is comparable, and a join is compatible only with an equal Lab.
type Lab struct {
	Source   string `json:"source"`    // benchmark source name
	TraceLen int    `json:"trace_len"` // per-benchmark trace length
	Seed     int64  `json:"seed"`
	// Protocol is the lab's run protocol token, multicore.Spec.Protocol
	// of its warmup and sampling spec with no separator ("" when exact).
	Protocol string `json:"protocol,omitempty"`
}

// JoinResponse grants fleet membership.
type JoinResponse struct {
	// ID is the member identity to heartbeat under.
	ID string `json:"id"`
	// Heartbeat is the interval the worker must beat at; missing
	// missedBeats consecutive beats forfeits membership.
	Heartbeat time.Duration `json:"heartbeat"`
}

// ErrIncompatible reports a join rejected for a build or lab
// configuration mismatch. The serve layer maps it to HTTP 409 and the
// agent treats it as fatal (retrying cannot help).
var ErrIncompatible = errors.New("fleet: incompatible build or lab configuration")
