package serve

// The HTTP surface. All endpoints speak JSON; /jobs/{id}/events also
// speaks Server-Sent Events when the client asks for text/event-stream.
//
//	GET  /healthz            server identity, uptime, job stats
//	GET  /metrics            Prometheus text exposition (?format=json)
//	GET  /fleet/metrics      per-worker aggregated view (coordinator)
//	GET  /experiments        the registry catalogue
//	GET  /benches            the active benchmark source
//	GET  /cache              identity-preserving persistent-store listing
//	POST /jobs               submit {kind, experiment|simulate|sweep}
//	GET  /jobs               list jobs
//	GET  /jobs/{id}          one job's status
//	GET  /jobs/{id}/result   the result (202 while not finished)
//	GET  /jobs/{id}/events   progress log: JSON long-poll (?after, ?wait)
//	                         or SSE (Accept: text/event-stream)
//	POST /jobs/{id}/cancel   cancel a queued or running job

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mcbench/internal/bench"
	"mcbench/internal/buildinfo"
	"mcbench/internal/experiments"
	"mcbench/internal/results"
)

// maxBodyBytes bounds submission bodies (sweep workload lists included).
const maxBodyBytes = 8 << 20

// maxJoinBytes bounds a fleet join: an address, a build identity and a
// lab identity take well under a kilobyte.
const maxJoinBytes = 64 << 10

// maxLongPollWait caps the ?wait parameter of the long-poll endpoint.
const maxLongPollWait = 60 * time.Second

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Health is the /healthz payload.
type Health struct {
	OK       bool           `json:"ok"`
	Build    buildinfo.Info `json:"build"`
	Uptime   string         `json:"uptime"`
	Source   string         `json:"source"`
	TraceLen int            `json:"trace_len"`
	CacheDir string         `json:"cache_dir,omitempty"`
	Workers  int            `json:"workers"`
	// JobTimeout is the per-job wall-clock bound ("0s" when unbounded).
	JobTimeout string `json:"job_timeout,omitempty"`
	Jobs       Stats  `json:"jobs"`
	// Sweeps counts the full population sweeps this node actually ran
	// (cache and fabric hits excluded); summed across a fleet it pins
	// fleet-wide dedup.
	Sweeps SweepCounts `json:"sweeps"`
	// Fleet is this node's fleet role, when it has one.
	Fleet *FleetHealth `json:"fleet,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	badco, detailed := s.lab.SweepCounts()
	writeJSON(w, http.StatusOK, Health{
		OK:         true,
		Build:      s.build,
		Uptime:     time.Since(s.start).Round(time.Millisecond).String(),
		Source:     s.lab.Source().Name(),
		TraceLen:   s.lab.Config().TraceLen,
		CacheDir:   s.lab.Config().CacheDir,
		Workers:    s.workers,
		JobTimeout: s.jobTimeoutString(),
		Jobs:       s.mgr.snapshotStats(),
		Sweeps:     SweepCounts{Badco: badco, Detailed: detailed},
		Fleet:      s.fleetHealth(),
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": experiments.Catalogue()})
}

func (s *Server) handleBenches(w http.ResponseWriter, r *http.Request) {
	src := s.lab.Source()
	writeJSON(w, http.StatusOK, map[string]any{"source": src.Name(), "benchmarks": bench.Describe(src)})
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	store, err := s.lab.Store()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if store == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"dir": "", "entries": []results.Entry{},
			"note": "no cache directory configured (-cache)",
		})
		return
	}
	entries, err := store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if entries == nil {
		entries = []results.Entry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"dir": s.lab.Config().CacheDir, "entries": entries})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "serve: bad submission: %v", err)
		return
	}
	canon, key, err := canonicalize(req, s.lab.Source(), s.lab.Config().TraceLen)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, deduped, err := s.mgr.submit(canon, key)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		// Contract: a 503 here means the submission was rejected before it
		// was enqueued — nothing ran, nothing will — so retrying it is
		// always safe. Retry-After tells well-behaved clients (including
		// mcbench.Client) when; 1s is one queue-drain quantum.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st := j.status()
	st.Deduped = deduped
	status := http.StatusCreated
	if deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.list()})
}

// jobFor resolves {id} or writes a 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.mgr.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "serve: no job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st := j.status()
	if !st.State.Terminal() {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	if st.State != StateDone {
		writeJSON(w, http.StatusOK, map[string]any{"status": st})
		return
	}
	j.mu.Lock()
	result := j.result
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, result)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.mgr.cancelJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "serve: no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's progress log. JSON mode returns the
// events past ?after=SEQ, long-polling up to ?wait=DURATION for new ones;
// SSE mode (Accept: text/event-stream) replays from ?after and follows
// until the job is terminal.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "serve: bad after cursor %q", v)
			return
		}
		after = n
	}
	// Compound Accept values ("text/event-stream, */*", quality params)
	// are how SSE libraries and proxies commonly ask; substring matching
	// keeps them on the stream instead of silently degrading to one
	// long-poll page.
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamSSE(w, r, j, after)
		return
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "serve: bad wait duration %q", v)
			return
		}
		wait = min(d, maxLongPollWait)
	}
	deadline := time.Now().Add(wait)
	for {
		evs, wake, state := j.eventsAfter(after)
		if len(evs) > 0 || state.Terminal() || wait == 0 || !time.Now().Before(deadline) {
			if evs == nil {
				evs = []Event{}
			}
			// state comes from the same snapshot as evs: a terminal
			// state here guarantees the final event is in (or before)
			// this page, so a follower never stops early.
			writeJSON(w, http.StatusOK, map[string]any{
				"id": j.id, "state": state, "events": evs,
			})
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-wake:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

// streamSSE follows the event log as Server-Sent Events until the job
// settles or the client disconnects. Event Seq doubles as the SSE id, so
// a reconnecting client resumes with ?after=<last id>.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, j *job, after int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "serve: streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		evs, wake, state := j.eventsAfter(after)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			after = ev.Seq
		}
		flusher.Flush()
		if state.Terminal() {
			// The snapshot's terminal state guarantees the final event
			// was in evs (state and log move under one lock), so the
			// stream ends complete.
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// routes builds the mux. Every endpoint is wrapped with per-endpoint
// request/latency instrumentation keyed by the route pattern.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /experiments", s.handleExperiments)
	handle("GET /benches", s.handleBenches)
	handle("GET /cache", s.handleCache)
	handle("GET /cache/{key}", s.handleCacheGet)
	handle("POST /fleet/join", s.handleFleetJoin)
	handle("POST /fleet/heartbeat", s.handleFleetHeartbeat)
	handle("POST /fleet/leave", s.handleFleetLeave)
	handle("GET /fleet/metrics", s.handleFleetMetrics)
	handle("POST /jobs", s.handleSubmit)
	handle("GET /jobs", s.handleJobs)
	handle("GET /jobs/{id}", s.handleJob)
	handle("GET /jobs/{id}/result", s.handleResult)
	handle("GET /jobs/{id}/events", s.handleEvents)
	handle("POST /jobs/{id}/cancel", s.handleCancel)
	if s.pprofOn {
		pprofRoutes(mux)
	}
	return mux
}
