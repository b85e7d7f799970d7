package serve

// Fleet integration: coordinator-side membership endpoints (join,
// heartbeat, leave), the content-addressed cache fetch endpoint that
// forms the fleet's shared result fabric, the shard dispatch hook the
// experiment/warm executors call before their local warm, and the fleet
// section of /healthz.
//
// Role model: a server with a FleetConfig whose Join is empty is a
// coordinator — it accepts joins and shards campaigns across whoever
// registered (a coordinator with no workers degrades to a plain
// single-node server). A server with Join set is a worker: it runs a
// membership agent against the coordinator and serves warm jobs; its
// cache read-through fetches from the coordinator, whose own
// read-through fans out to the workers, so any node can serve any
// table with at most one hop and no fetch cycles.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mcbench/internal/experiments"
	"mcbench/internal/fleet"
	"mcbench/internal/results"
)

// FleetConfig opts a server into the fleet.
type FleetConfig struct {
	// Join is the coordinator address to join as a worker; empty means
	// this server is itself a coordinator (every server is
	// coordinator-capable — running standalone just means zero peers).
	Join string
	// Advertise is the address fleet peers should reach this server at;
	// empty defaults to the bound listen address (useful only when the
	// listen address is directly reachable, e.g. not ":0" behind NAT).
	Advertise string
	// Heartbeat is the worker heartbeat interval granted by the
	// coordinator (0 → the fleet default).
	Heartbeat time.Duration
	// StealAfter bounds how long a dispatched shard may run before the
	// coordinator steals it from the straggling worker (0 → steal only
	// when a worker's lease lapses).
	StealAfter time.Duration
	// Dial opens a fleet peer for an address. Injected by the public
	// mcbench package (backed by mcbench.Client); nil disables all fleet
	// behaviour.
	Dial fleet.Dialer
}

// fetchTimeout bounds one remote cache fetch (the store's Fetcher has no
// context of its own — it is called from deep inside lab loads).
const fetchTimeout = 30 * time.Second

// SweepCounts is the /healthz form of Lab.SweepCounts: how many full
// population sweeps this node actually ran (cache and fabric hits
// excluded). Summing it across a fleet asserts fleet-wide dedup.
type SweepCounts struct {
	Badco    int64 `json:"badco"`
	Detailed int64 `json:"detailed"`
}

// FleetHealth is the fleet section of /healthz.
type FleetHealth struct {
	// Role is "coordinator" or "worker".
	Role string `json:"role"`
	// Peers counts live workers (coordinator only).
	Peers int `json:"peers"`
	// Coordinator is the address this worker joined (worker only).
	Coordinator string `json:"coordinator,omitempty"`
	// MemberID is the membership identity granted by the coordinator
	// (worker only; empty while not joined).
	MemberID string `json:"member_id,omitempty"`
	// Queue is the live job-queue depth on this node.
	Queue int64 `json:"queue"`
	// ShardsOwned counts the warm jobs currently queued or running on
	// this node — the shards it presently owns.
	ShardsOwned int `json:"shards_owned"`
	// ShardsStolen counts shards the coordinator re-issued after a
	// worker died or straggled (coordinator only).
	ShardsStolen int64 `json:"shards_stolen,omitempty"`
	// LastError is the worker agent's most recent membership failure.
	LastError string `json:"last_error,omitempty"`
}

// fleetHealth assembles the /healthz fleet section (nil when the server
// is not fleet-configured).
func (s *Server) fleetHealth() *FleetHealth {
	stats := s.mgr.snapshotStats()
	if s.coord != nil {
		return &FleetHealth{
			Role:         "coordinator",
			Peers:        s.coord.Peers(),
			Queue:        stats.Queued,
			ShardsOwned:  s.mgr.activeWarmJobs(),
			ShardsStolen: s.coord.Stolen(),
		}
	}
	if s.fleet.Join == "" {
		return nil
	}
	fh := &FleetHealth{
		Role:        "worker",
		Coordinator: s.fleet.Join,
		Queue:       stats.Queued,
		ShardsOwned: s.mgr.activeWarmJobs(),
	}
	s.agentMu.Lock()
	a := s.agent
	s.agentMu.Unlock()
	if a != nil {
		id, lastErr := a.Status()
		fh.MemberID = id
		if lastErr != nil {
			fh.LastError = lastErr.Error()
		}
	}
	return fh
}

// fleetWarm dispatches the plan's shardable products across the fleet
// before the caller's local warm. Strictly best-effort: the local warm
// that follows is the authority — it reads every table the fleet did
// complete through the result fabric (cache hits) and computes whatever
// is left, so a dead worker, a lost shard or an empty fleet costs
// locality, never correctness.
func (s *Server) fleetWarm(ctx context.Context, j *job, plan []experiments.Request) {
	if s.coord == nil || s.coord.Peers() == 0 {
		return
	}
	shards := s.lab.PartitionPlan(plan)
	if len(shards) == 0 {
		return
	}
	rep := s.coord.WarmFleet(ctx, shards, func(ev fleet.ShardEvent) {
		j.emit("shard", shardMsg(ev), shardData(ev))
	})
	if rep.Shards > 0 {
		j.emit("fleet",
			fmt.Sprintf("fleet warm: %d products over %d workers (%d shards, %d stolen, %d unassigned)",
				rep.Products, rep.Members, rep.Shards, rep.Stolen, rep.Unassigned),
			map[string]any{
				"members": rep.Members, "shards": rep.Shards, "products": rep.Products,
				"stolen": rep.Stolen, "unassigned": rep.Unassigned,
			})
	}
}

// shardMsg renders one shard event for human stream consumers.
func shardMsg(ev fleet.ShardEvent) string {
	switch ev.Type {
	case "dispatch":
		return fmt.Sprintf("shard → %s (%s): %d products as %s", ev.Worker, ev.Addr, ev.Products, ev.JobID)
	case "done":
		return fmt.Sprintf("shard ✓ %s: %d products", ev.Worker, ev.Products)
	default:
		return fmt.Sprintf("shard stolen from %s: %v", ev.Worker, ev.Err)
	}
}

// shardData is the structured form of one shard event.
func shardData(ev fleet.ShardEvent) map[string]any {
	data := map[string]any{
		"shard":    ev.Type,
		"worker":   ev.Worker,
		"addr":     ev.Addr,
		"products": ev.Products,
	}
	if ev.JobID != "" {
		data["job"] = ev.JobID
	}
	if ev.Err != nil {
		data["error"] = ev.Err.Error()
	}
	return data
}

// handleCacheGet serves one stored table's raw bytes (integrity footer
// included) — the content-addressed fetch behind the fleet's result
// fabric. Strictly local: it never triggers this node's own
// read-through, so peer fetches cannot cycle.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	store, err := s.lab.Store()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	key := r.PathValue("key")
	if store == nil {
		writeError(w, http.StatusNotFound, "serve: no cache entry %q (no cache directory configured)", key)
		return
	}
	data, ok, err := store.ReadRaw(key)
	switch {
	case errors.Is(err, results.ErrBadKey):
		writeError(w, http.StatusBadRequest, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	case !ok:
		writeError(w, http.StatusNotFound, "serve: no cache entry %q", key)
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		_, _ = w.Write(data)
	}
}

// fleetIDRequest is the heartbeat/leave body.
type fleetIDRequest struct {
	ID string `json:"id"`
}

// handleFleetJoin registers a worker (coordinator only). Incompatible
// builds or lab configurations are rejected with 409 — the agent treats
// that as fatal, so mixed-version fleets fail loudly at startup instead
// of silently poisoning the shared cache.
func (s *Server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeError(w, http.StatusNotFound, "serve: not a fleet coordinator")
		return
	}
	var req fleet.JoinRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJoinBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "serve: bad join request: %v", err)
		return
	}
	resp, err := s.coord.Join(req)
	switch {
	case errors.Is(err, fleet.ErrIncompatible):
		writeError(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleFleetHeartbeat renews a worker's lease; an unknown id is 404
// (the worker re-joins).
func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeError(w, http.StatusNotFound, "serve: not a fleet coordinator")
		return
	}
	var req fleetIDRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "serve: bad heartbeat: %v", err)
		return
	}
	if !s.coord.Beat(req.ID) {
		writeError(w, http.StatusNotFound, "serve: unknown fleet member %q", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleFleetLeave deregisters a worker (idempotent).
func (s *Server) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeError(w, http.StatusNotFound, "serve: not a fleet coordinator")
		return
	}
	var req fleetIDRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "serve: bad leave: %v", err)
		return
	}
	s.coord.Leave(req.ID)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
