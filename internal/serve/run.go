package serve

// Job executors. Experiment jobs ride the shared Lab — its single-flight
// memoization and persistent table cache are what make N concurrent
// clients cheap — and the event router forwards the lab's product
// events (sweeps starting, tables landing, cache hits) to every job that
// declared an interest in the product. Ad-hoc simulate/sweep jobs
// resolve traces through the lab's source (memoized, shared) and take
// their BADCO models from the lab's per-benchmark model memo, so each
// benchmark's model is built once per server, not once per job.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mcbench/internal/experiments"
	"mcbench/internal/multicore"
)

// router fans lab product events out to the jobs interested in each
// product. Jobs register the normalized requests of their campaign plan
// before warming and unregister afterwards; a product event reaches
// every job registered for it at emission time — including single-flight
// waiters riding another job's computation.
type router struct {
	mu sync.Mutex
	m  map[experiments.Request]map[*job]struct{}
}

func newRouter() *router {
	return &router{m: map[experiments.Request]map[*job]struct{}{}}
}

func (r *router) register(j *job, plan []experiments.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, req := range plan {
		req = req.Normalized()
		set := r.m[req]
		if set == nil {
			set = map[*job]struct{}{}
			r.m[req] = set
		}
		set[j] = struct{}{}
	}
}

func (r *router) unregister(j *job, plan []experiments.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, req := range plan {
		req = req.Normalized()
		if set := r.m[req]; set != nil {
			delete(set, j)
			if len(set) == 0 {
				delete(r.m, req)
			}
		}
	}
}

// dispatch is installed as the lab's Observer. A product event carries
// its normalized request, the very key jobs register under.
func (r *router) dispatch(ev experiments.ProductEvent) {
	r.mu.Lock()
	jobs := make([]*job, 0, len(r.m[ev.Request]))
	for j := range r.m[ev.Request] {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	if len(jobs) == 0 {
		return
	}
	data := map[string]any{
		"sim":   string(ev.Sim),
		"phase": ev.Phase,
	}
	if ev.Cores > 0 {
		data["cores"] = ev.Cores
	}
	if ev.Policy != "" {
		data["policy"] = string(ev.Policy)
	}
	if ev.Cached {
		data["cached"] = true
	}
	if ev.Phase == "done" && ev.Err == nil {
		data["rows"] = ev.Rows
		data["elapsed_ms"] = ev.Elapsed.Milliseconds()
	}
	if ev.Err != nil {
		data["error"] = ev.Err.Error()
	}
	msg := productMsg(ev)
	for _, j := range jobs {
		j.emit("product", msg, data)
	}
}

// productMsg renders one product event for human consumers of the
// stream.
func productMsg(ev experiments.ProductEvent) string {
	id := string(ev.Sim)
	if ev.Cores > 0 {
		id = fmt.Sprintf("%s c%d", id, ev.Cores)
	}
	if ev.Policy != "" {
		id = fmt.Sprintf("%s %s", id, ev.Policy)
	}
	switch {
	case ev.Err != nil:
		return fmt.Sprintf("%s: %v", id, ev.Err)
	case ev.Phase == "start":
		return id + ": computing"
	case ev.Cached:
		return fmt.Sprintf("%s: %d rows (cache)", id, ev.Rows)
	default:
		return fmt.Sprintf("%s: %d rows in %v", id, ev.Rows, ev.Elapsed.Round(time.Millisecond))
	}
}

// runJob dispatches one job to its executor.
func (s *Server) runJob(ctx context.Context, j *job) (*JobResult, error) {
	switch j.req.Kind {
	case KindExperiment:
		return s.runExperiment(ctx, j)
	case KindSimulate, KindSweep:
		return s.runAdhoc(ctx, j)
	case KindWarm:
		return s.runWarm(ctx, j)
	}
	return nil, fmt.Errorf("serve: unknown job kind %q", j.req.Kind)
}

// runWarm precomputes the requested campaign products through the shared
// lab. On a worker this is how fleet shards execute (each table persists
// into the node's cache, where the fabric serves it); on a coordinator
// the plan is itself fleet-dispatched first, making SubmitWarm a
// distributed warm-up API.
func (s *Server) runWarm(ctx context.Context, j *job) (*JobResult, error) {
	refs := j.req.Warm.Products
	plan := make([]experiments.Request, len(refs))
	for i, p := range refs {
		plan[i] = p.request()
	}
	j.emit("plan", fmt.Sprintf("%d products to warm", len(plan)), map[string]any{"products": len(plan)})
	s.router.register(j, plan)
	defer s.router.unregister(j, plan)
	s.fleetWarm(ctx, j, plan)
	n, err := s.lab.Warm(ctx, plan, 0)
	if err != nil {
		return nil, err
	}
	return &JobResult{ID: j.id, Kind: KindWarm, Warmed: n}, nil
}

// runExperiment warms the experiment's campaign plan through the shared
// lab (streaming product events as tables land), then runs the
// experiment itself over the memoized products.
func (s *Server) runExperiment(ctx context.Context, j *job) (*JobResult, error) {
	e, ok := experiments.Lookup(j.req.Experiment.Name)
	if !ok { // canonicalize validated; racing deregistration is impossible
		return nil, fmt.Errorf("serve: unknown experiment %q", j.req.Experiment.Name)
	}
	// The same cores-to-Params mapping as the public Lab.Run, so both
	// entry points key the shared memo and cache identically.
	p := experiments.ParamsFor(j.req.Experiment.Cores)
	plan := s.lab.CampaignPlan([]string{e.Name}, p)
	if len(plan) > 0 {
		j.emit("plan", fmt.Sprintf("%d products to warm", len(plan)), map[string]any{"products": len(plan)})
		s.router.register(j, plan)
		defer s.router.unregister(j, plan)
		// Fleet dispatch first (no-op when standalone): whatever the
		// workers complete turns into read-through cache hits in the
		// local warm below, which remains the correctness authority.
		s.fleetWarm(ctx, j, plan)
		if _, err := s.lab.Warm(ctx, plan, 0); err != nil {
			return nil, err
		}
	}
	tab, err := e.Run(ctx, s.lab, p)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		ID: j.id, Kind: KindExperiment,
		Table: &TableResult{Title: tab.Title, Columns: tab.Columns, Rows: tab.Rows, Notes: tab.Notes},
		Text:  tab.String(),
	}, nil
}

// runAdhoc runs a simulate or sweep job through the lab's ad-hoc
// executor (experiments.Lab.Simulate): traces resolve through the lab's
// memoized source, the BADCO models of the distinct benchmarks the
// request touches come from the lab's model memo (built on first use,
// shared by every later job), and the sweep parallelises across the
// process-wide simulation budget. The request's sampling spec is echoed
// into sampled results.
func (s *Server) runAdhoc(ctx context.Context, j *job) (*JobResult, error) {
	rs, workloads, err := j.req.adhoc()
	if err != nil {
		return nil, err
	}
	spec, err := rs.spec()
	if err != nil {
		return nil, err
	}
	results, distinct, built, err := s.lab.Simulate(ctx, spec, workloads, rs.Cores)
	// Ad-hoc jobs are one-shot: release every trace the sweep built
	// (model builds already released the ones they resolved) so a
	// long-running server's resident memory tracks in-flight work, not
	// the history of benchmarks clients ever touched. The traces rebuild
	// deterministically if asked again.
	if spec.Engine == multicore.Detailed {
		prov := s.lab.Provider()
		for _, n := range distinct {
			prov.Release(n)
		}
	}
	if err != nil {
		return nil, err
	}
	if spec.Engine == multicore.BADCO {
		j.emit("models", fmt.Sprintf("%d BADCO models ready (%d built, %d reused)", len(distinct), built, len(distinct)-built),
			map[string]any{"models": len(distinct), "built": built})
	}
	out := make([]SimResult, len(results))
	for i, r := range results {
		out[i] = SimResult{
			Workload:     append([]string(nil), r.Workload...),
			Policy:       string(r.Policy),
			Engine:       spec.Engine.String(),
			IPC:          r.IPC,
			Cycles:       r.Cycles,
			Instructions: r.Instructions,
			Warmup:       spec.Warmup,
			Sampling:     rs.Sampling,
			CIHalf:       r.CIHalf,
			CV:           r.CV,
			Windows:      r.Windows,
		}
	}
	return &JobResult{ID: j.id, Kind: j.req.Kind, Results: out}, nil
}
