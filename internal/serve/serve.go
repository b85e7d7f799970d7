// Package serve exposes the experiment engine as a long-running HTTP
// JSON service: the `mcbench serve` subcommand and the public
// mcbench.Client speak to it. One shared experiments.Lab backs every
// job, so concurrent requests ride the lab's single-flight memoization
// and persistent table cache — M clients submitting the same sweep cost
// one computation — and a bounded worker pool keeps the simulation load
// explicit. Identical in-flight submissions coalesce onto one job
// (request.go), per-job event logs stream progress as tables land
// (job.go, run.go), and a cancelled lifetime context drains the server
// gracefully: running jobs are cut, every sweep completed before the
// signal is already persisted, and ListenAndServe returns nil so the
// process exits 0.
package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"mcbench/internal/bench"
	"mcbench/internal/buildinfo"
	"mcbench/internal/experiments"
	"mcbench/internal/fleet"
	"mcbench/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// Lab is the experiment campaign configuration the server's shared
	// lab is built from (source, trace length, cache directory, scale).
	// The server installs its own product Observer, chaining any
	// observer already present.
	Lab experiments.Config
	// Workers bounds the number of concurrently executing jobs
	// (default 2). Each job's sweeps already parallelise internally
	// across the process-wide simulation budget; Workers is the
	// campaign-level axis.
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs
	// (default 16); submissions beyond it are rejected with 503.
	QueueDepth int
	// KeepJobs bounds how many settled jobs stay queryable with their
	// event logs and results (default 256). Beyond it the oldest are
	// evicted, so a long-running server holds O(KeepJobs) finished
	// jobs under sustained traffic instead of all of them.
	KeepJobs int
	// JobTimeout bounds each job's wall-clock run time; a job exceeding
	// it is cancelled and marked failed (never canceled — the timeout is
	// the server refusing work, not the client withdrawing it). 0 means
	// no bound.
	JobTimeout time.Duration
	// Fleet opts the server into the distributed lab (see FleetConfig);
	// nil, or a nil Fleet.Dial, keeps it standalone.
	Fleet *FleetConfig
	// Pprof mounts net/http/pprof under /debug/pprof/ (opt-in: profiles
	// expose implementation detail and cost CPU when scraped).
	Pprof bool
}

// Server is the experiment service: a shared Lab, a job manager and the
// HTTP handlers over them.
type Server struct {
	lab     *experiments.Lab
	mgr     *manager
	router  *router
	mux     *http.ServeMux
	build   buildinfo.Info
	start   time.Time
	workers int
	pprofOn bool

	// metrics is this server's private telemetry registry: the lab, the
	// persistent store and the HTTP layer all record into it, and
	// GET /metrics scrapes it. Per-server (not telemetry.Default()) so
	// co-resident servers — every httptest server in the suite — keep
	// disjoint series.
	metrics *telemetry.Registry

	// Fleet state (see fleet.go). coord is non-nil on coordinators,
	// coordPeer on workers; the agent is created once the listener is
	// bound (its advertised address defaults to the bound one). fleetLab
	// is the lab identity a coordinator admits and a worker joins with.
	fleet     FleetConfig
	fleetLab  fleet.Lab
	coord     *fleet.Coordinator
	coordPeer fleet.Peer
	agentMu   sync.Mutex
	agent     *fleet.Agent
	fleetErr  error // worker dial failure, surfaced by ListenAndServe
}

// New builds a server (and its lab) from the configuration.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	s := &Server{
		router:  newRouter(),
		build:   buildinfo.Read(),
		start:   time.Now(),
		workers: cfg.Workers,
		pprofOn: cfg.Pprof,
		metrics: telemetry.NewRegistry(),
	}
	labCfg := cfg.Lab
	labCfg.Metrics = s.metrics
	if prev := labCfg.Observer; prev != nil {
		labCfg.Observer = func(ev experiments.ProductEvent) {
			prev(ev)
			s.router.dispatch(ev)
		}
	} else {
		labCfg.Observer = s.router.dispatch
	}
	// Normalize the source here (NewLab would anyway) so the fleet
	// identity below and the lab agree on its name.
	if labCfg.Source == nil {
		labCfg.Source = bench.NewSuite()
	}
	if cfg.Fleet != nil && cfg.Fleet.Dial != nil {
		s.fleet = *cfg.Fleet
		s.fleetLab = fleet.Lab{Source: labCfg.Source.Name(), TraceLen: labCfg.TraceLen, Seed: labCfg.Seed}
		if s.fleet.Join == "" {
			// Coordinator: accept joins, and read through to the workers'
			// caches (rendezvous-ranked) on local misses.
			s.coord = fleet.NewCoordinator(fleet.Config{
				Build: s.build, Lab: s.fleetLab,
				Heartbeat: s.fleet.Heartbeat, StealAfter: s.fleet.StealAfter,
				Dial: s.fleet.Dial,
			})
			if labCfg.CacheDir != "" && labCfg.RemoteFetch == nil {
				coord := s.coord
				labCfg.RemoteFetch = func(key string) ([]byte, bool, error) {
					ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
					defer cancel()
					return coord.Fetch(ctx, key)
				}
			}
		} else {
			// Worker: read through to the coordinator's cache (which
			// itself holds, or fetches, whatever any node computed).
			peer, err := s.fleet.Dial(s.fleet.Join)
			if err != nil {
				s.fleetErr = err
			} else {
				s.coordPeer = peer
				if labCfg.CacheDir != "" && labCfg.RemoteFetch == nil {
					labCfg.RemoteFetch = func(key string) ([]byte, bool, error) {
						ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
						defer cancel()
						return peer.FetchCache(ctx, key)
					}
				}
			}
		}
	}
	s.lab = experiments.NewLab(labCfg)
	s.mgr = newManager(cfg.Workers, cfg.QueueDepth, cfg.KeepJobs, cfg.JobTimeout, s.runJob)
	s.registerMetrics()
	s.mux = s.routes()
	return s
}

// Lab returns the server's shared lab (tests assert on its sweep
// counters).
func (s *Server) Lab() *experiments.Lab { return s.lab }

// jobTimeoutString renders the per-job bound for /healthz ("" when
// unbounded, so the field elides).
func (s *Server) jobTimeoutString() string {
	if s.mgr.jobTimeout <= 0 {
		return ""
	}
	return s.mgr.jobTimeout.String()
}

// Handler returns the server's HTTP handler, for httptest and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting submissions, cancels queued and running jobs,
// and waits for the workers to exit. Sweeps completed before the drain
// are already persisted (the lab saves each table as it lands), so a
// restart over the same cache directory serves them from disk.
func (s *Server) Drain() { s.mgr.drain() }

// shutdownGrace bounds how long a draining server waits for in-flight
// HTTP exchanges (the jobs behind them are already cancelled).
const shutdownGrace = 10 * time.Second

// ListenAndServe serves on addr until ctx is cancelled, then drains:
// stop accepting jobs, cancel in-flight ones, flush event streams, shut
// the listener down. A drain triggered by ctx is a clean exit — the
// return value is nil, so a SIGTERM'd server exits 0. onReady, when
// non-nil, is called once with the bound address (useful with ":0").
func (s *Server) ListenAndServe(ctx context.Context, addr string, onReady func(addr string)) error {
	if addr == "" {
		addr = "127.0.0.1:8080"
	}
	if s.fleetErr != nil {
		return s.fleetErr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: s.Handler(),
		BaseContext: func(net.Listener) context.Context {
			// Request handlers (long-polls, SSE followers) observe the
			// drain through their request contexts.
			return ctx
		},
	}
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	// A worker starts its membership agent once the listener is bound
	// (the advertised address defaults to the bound one). The agent
	// failing is fatal only when it means incompatibility — a clean nil
	// return is the ctx-cancel path, folded into the drain below.
	var agentErr chan error
	if s.coordPeer != nil {
		adv := s.fleet.Advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		a := fleet.NewAgent(fleet.AgentConfig{
			Coordinator: s.coordPeer,
			Join:        fleet.JoinRequest{Addr: adv, Build: s.build, Lab: s.fleetLab},
		})
		s.agentMu.Lock()
		s.agent = a
		s.agentMu.Unlock()
		agentErr = make(chan error, 1)
		go func() { agentErr <- a.Run(ctx) }()
	}
	select {
	case err := <-serveErr:
		s.Drain()
		return err // listener failed outright
	case err := <-agentErr:
		if err != nil {
			// Incompatible fleet: refuse to run rather than poison the
			// shared cache with differently-built tables.
			s.Drain()
			shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			defer cancel()
			_ = hs.Shutdown(shutCtx)
			<-serveErr
			return err
		}
		<-ctx.Done() // agent exits nil only on ctx cancel
	case <-ctx.Done():
	}
	s.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	return nil
}
