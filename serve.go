package mcbench

import (
	"context"
	"time"

	"mcbench/internal/fleet"
	"mcbench/internal/results"
	"mcbench/internal/serve"
)

// ServeOptions configures Serve.
type ServeOptions struct {
	// Addr is the listen address (default "127.0.0.1:8080"). Use ":0"
	// with OnReady to bind an ephemeral port.
	Addr string
	// Workers bounds the number of concurrently executing jobs
	// (default 2). Each job's sweeps already parallelise internally
	// across the process-wide simulation budget; Workers is the
	// campaign-level axis.
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs
	// (default 16); submissions beyond it are rejected with 503.
	QueueDepth int
	// KeepJobs bounds how many settled jobs stay queryable with their
	// event logs and results (default 256); beyond it the oldest are
	// evicted, so a long-running server cannot grow without bound.
	KeepJobs int
	// JobTimeout bounds each job's wall-clock run time. A job exceeding
	// it is cancelled and marked failed (not canceled: the timeout is the
	// server refusing further work, not the client withdrawing it), with
	// the timeout recorded in the job's error and counted in
	// ServerStats.TimedOut. 0 means no bound.
	JobTimeout time.Duration
	// OnReady, when non-nil, is called once with the bound address as
	// soon as the server is listening.
	OnReady func(addr string)

	// Join, when set, runs this server as a fleet worker: it registers
	// with the coordinator at that address ("host:port" or a full
	// http(s) URL), heartbeats, and serves the campaign shards the
	// coordinator dispatches. Empty means the server is itself a
	// coordinator — campaigns submitted to it are sharded across
	// whatever workers have joined (none joined: plain single-node
	// serving). A worker whose build or lab configuration differs from
	// the coordinator's is rejected at join and Serve returns the error.
	Join string
	// Advertise is the address fleet peers should reach this server at;
	// empty defaults to the bound listen address.
	Advertise string
	// FleetHeartbeat is the worker heartbeat interval the coordinator
	// grants (default 5s); a worker missing three consecutive beats is
	// considered dead and its unfinished shards are re-issued.
	FleetHeartbeat time.Duration
	// StealAfter bounds how long a dispatched shard may run before the
	// coordinator steals it from the straggling worker and re-issues it
	// (0: steal only when a worker's heartbeat lease lapses).
	StealAfter time.Duration

	// Pprof mounts net/http/pprof under /debug/pprof/ — CPU and heap
	// profiles, goroutine dumps, execution traces. Opt-in: profiling
	// endpoints expose implementation detail and cost CPU when scraped.
	Pprof bool
}

// Serve runs the experiment service until ctx is cancelled, then drains
// gracefully: new submissions are rejected, running jobs are cancelled,
// and every population sweep completed before the cancellation is
// already persisted when Config.CacheDir is set — a restarted server
// over the same cache directory serves them from disk. A drain is a
// clean shutdown: Serve returns nil, so a SIGTERM'd process exits 0.
//
// One shared Lab (built from cfg) backs every job, so concurrent
// requests ride its single-flight memoization: identical in-flight
// submissions coalesce onto one job, and M clients asking for the same
// sweep cost one computation. See Client for the matching API consumer,
// and the README's "Serving" section for the HTTP surface.
// When fleet options are set, Serve is also one node of a distributed
// lab: run one coordinator and any number of `Join`ed workers, submit
// campaigns to the coordinator, and the expensive population sweeps
// shard across the fleet by content key, converging through the shared
// result fabric (GET /cache/{key} with checksum-verified read-through).
// See the README's "Distributed lab" section for a 3-node quickstart.
func Serve(ctx context.Context, cfg Config, opts ServeOptions) error {
	srv := serve.New(serve.Config{
		Lab: cfg, Workers: opts.Workers, QueueDepth: opts.QueueDepth,
		KeepJobs: opts.KeepJobs, JobTimeout: opts.JobTimeout,
		Pprof: opts.Pprof,
		Fleet: &serve.FleetConfig{
			Join: opts.Join, Advertise: opts.Advertise,
			Heartbeat: opts.FleetHeartbeat, StealAfter: opts.StealAfter,
			Dial: dialPeer,
		},
	})
	return srv.ListenAndServe(ctx, opts.Addr, opts.OnReady)
}

// Wire types of the serve API, shared by the server and Client.
type (
	// JobState is a job's lifecycle state: "queued", "running", "done",
	// "failed" or "canceled".
	JobState = serve.State
	// JobStatus describes a submitted job (GET /jobs/{id}).
	JobStatus = serve.JobStatus
	// JobResult is a completed job's payload (GET /jobs/{id}/result).
	JobResult = serve.JobResult
	// JobEvent is one entry of a job's progress log.
	JobEvent = serve.Event
	// ServerHealth is the /healthz payload.
	ServerHealth = serve.Health
	// ServerStats counts the job manager's traffic.
	ServerStats = serve.Stats
	// CacheEntry is one identity-preserving /cache listing entry.
	CacheEntry = results.Entry
	// ProductRef names one campaign product in a warm submission
	// (POST /jobs with kind "warm").
	ProductRef = serve.ProductRef
	// SweepCounts reports how many full population sweeps a node
	// actually ran (/healthz "sweeps"); fleet dedup tests sum it.
	SweepCounts = serve.SweepCounts
	// FleetHealth is the fleet section of /healthz.
	FleetHealth = serve.FleetHealth
	// FleetJoinRequest is a worker's registration handshake
	// (POST /fleet/join).
	FleetJoinRequest = fleet.JoinRequest
	// FleetJoinResponse grants fleet membership.
	FleetJoinResponse = fleet.JoinResponse
	// FleetMetricsView is the coordinator's aggregated per-worker
	// telemetry view (GET /fleet/metrics).
	FleetMetricsView = serve.FleetMetrics
	// WorkerMetrics is one worker's row of a FleetMetricsView.
	WorkerMetrics = serve.WorkerMetrics
)

// Job lifecycle states.
const (
	JobQueued   = serve.StateQueued
	JobRunning  = serve.StateRunning
	JobDone     = serve.StateDone
	JobFailed   = serve.StateFailed
	JobCanceled = serve.StateCanceled
)
