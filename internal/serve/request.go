package serve

// Request canonicalization. Every submission is validated and rewritten
// into a canonical form up front — defaults filled in, workloads
// resolved, names checked against the benchmark source — and the
// canonical form is rendered into a stable key string. The key is the
// dedup identity: two submissions asking for the same computation
// canonicalize to the same key and coalesce onto one job, the serve-side
// analogue of the identity scheme results.IPCTable.Key uses for the
// persistent table cache.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/experiments"
	"mcbench/internal/multicore"
)

// Kind classifies a job.
type Kind string

const (
	// KindExperiment runs a registered experiment (registry-dispatched).
	KindExperiment Kind = "experiment"
	// KindSimulate runs one ad-hoc workload.
	KindSimulate Kind = "simulate"
	// KindSweep runs many ad-hoc workloads under one configuration.
	KindSweep Kind = "sweep"
	// KindWarm precomputes campaign products into the node's persistent
	// cache without rendering a table. The fleet coordinator dispatches
	// campaign shards to workers as warm jobs; the results converge
	// through the content-addressed cache, not the job result.
	KindWarm Kind = "warm"
)

// Engine names on the wire.
const (
	EngineDetailed = "detailed"
	EngineBadco    = "badco"
)

// SubmitRequest is the wire form of a job submission: a kind plus the
// matching payload. Exactly one payload must be set.
type SubmitRequest struct {
	Kind       Kind               `json:"kind"`
	Experiment *ExperimentRequest `json:"experiment,omitempty"`
	Simulate   *SimulateRequest   `json:"simulate,omitempty"`
	Sweep      *SweepRequest      `json:"sweep,omitempty"`
	Warm       *WarmRequest       `json:"warm,omitempty"`
}

// ProductRef names one campaign product on the wire (the serve form of
// experiments.Request). Cores and Policy are meaningful per the
// simulator, exactly as in the campaign planner.
type ProductRef struct {
	Sim    string `json:"sim"`
	Cores  int    `json:"cores,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// WarmRequest asks a node to warm the named products into its lab (and
// persistent cache, when configured).
type WarmRequest struct {
	Products []ProductRef `json:"products"`
}

// ExperimentRequest asks for one registered experiment.
type ExperimentRequest struct {
	// Name is a registry experiment name (see /experiments).
	Name string `json:"name"`
	// Cores pins the core count; 0 means the experiment's paper default.
	Cores int `json:"cores,omitempty"`
}

// SimulateRequest asks for one ad-hoc workload simulation. The trace
// length is the server lab's Config.TraceLen.
type SimulateRequest struct {
	// Workload is one benchmark name per core. A single name with
	// Cores > 1 is replicated onto all cores.
	Workload []string `json:"workload"`
	// Policy is the LLC replacement policy (default "LRU").
	Policy string `json:"policy,omitempty"`
	// Engine is "detailed" (default) or "badco".
	Engine string `json:"engine,omitempty"`
	// Quota is the per-thread instruction quota (0: one trace length).
	Quota uint64 `json:"quota,omitempty"`
	// Warmup runs each thread for that many committed µops before the
	// measurement window opens (0: measure from reset). It must not
	// exceed the quota; submissions violating that are rejected before
	// enqueueing.
	Warmup uint64 `json:"warmup,omitempty"`
	// Cores replicates a single-benchmark workload, up to
	// multicore.MaxCores; 0 keeps the workload's own width.
	Cores int `json:"cores,omitempty"`
	// Sampling, when set, runs the detailed simulation under systematic
	// sampling (multicore.Spec.Sampling): the returned IPCs become
	// steady-state estimates with confidence and cv columns. Requires
	// the detailed engine and is mutually exclusive with Warmup.
	Sampling *multicore.SamplingSpec `json:"sampling,omitempty"`
}

// SweepRequest is SimulateRequest over many workloads at once.
type SweepRequest struct {
	Workloads [][]string              `json:"workloads"`
	Policy    string                  `json:"policy,omitempty"`
	Engine    string                  `json:"engine,omitempty"`
	Quota     uint64                  `json:"quota,omitempty"`
	Warmup    uint64                  `json:"warmup,omitempty"`
	Cores     int                     `json:"cores,omitempty"`
	Sampling  *multicore.SamplingSpec `json:"sampling,omitempty"`
}

// sweep views a simulate request as a sweep of its one workload.
func (s *SimulateRequest) sweep() *SweepRequest {
	return &SweepRequest{
		Workloads: [][]string{s.Workload}, Policy: s.Policy, Engine: s.Engine,
		Quota: s.Quota, Warmup: s.Warmup, Cores: s.Cores, Sampling: s.Sampling,
	}
}

// check fills the policy and engine defaults into the request's run spec
// and checks the run with multicore.Check at the provider's trace
// length. It returns the spec, the resolved workloads and the distinct
// benchmark names; a rejection is a submitError.
func (s *SweepRequest) check(prov bench.Provider) (multicore.Spec, []multicore.Workload, []string, error) {
	spec := multicore.Spec{Policy: cache.PolicyName(s.Policy), Quota: s.Quota, Warmup: s.Warmup}
	if spec.Policy == "" {
		spec.Policy = cache.LRU
	}
	switch s.Engine {
	case "", EngineDetailed:
	case EngineBadco:
		spec.Engine = multicore.BADCO
	default:
		return spec, nil, nil, badRequest("serve: unknown engine %q (want %q or %q)", s.Engine, EngineDetailed, EngineBadco)
	}
	if s.Sampling != nil {
		spec.Sampling = *s.Sampling
	}
	ws, names, err := multicore.Check(prov, spec, s.Workloads, s.Cores)
	switch {
	case errors.Is(err, multicore.ErrUnknownBenchmark):
		return spec, nil, nil, badRequest("serve: %v (see /benches)", err)
	case err != nil:
		return spec, nil, nil, badRequest("serve: %v", err)
	}
	return spec, ws, names, nil
}

// submitError is a validation failure; the handler maps it to 400.
type submitError struct{ msg string }

func (e *submitError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &submitError{msg: fmt.Sprintf(format, args...)}
}

// canonicalize validates the submission against the source and registry,
// fills in defaults, resolves workloads, and returns the canonical
// request plus its dedup key. traceLen is the lab's per-benchmark trace
// length; it resolves a zero quota when validating the warmup window.
func canonicalize(req SubmitRequest, src bench.Source, traceLen int) (SubmitRequest, string, error) {
	prov := bench.At(src, traceLen)
	switch req.Kind {
	case KindExperiment:
		if req.Experiment == nil {
			return req, "", badRequest("serve: experiment submission without payload")
		}
		e := *req.Experiment
		if err := experiments.CheckCores(e.Cores); err != nil {
			return req, "", badRequest("serve: %v", err)
		}
		if _, ok := experiments.Lookup(e.Name); !ok {
			msg := fmt.Sprintf("serve: unknown experiment %q", e.Name)
			if s := experiments.Suggest(e.Name); s != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", s)
			}
			return req, "", badRequest("%s", msg)
		}
		canon := SubmitRequest{Kind: KindExperiment, Experiment: &e}
		return canon, fmt.Sprintf("exp|%s|c%d", e.Name, e.Cores), nil

	case KindSimulate:
		if req.Simulate == nil {
			return req, "", badRequest("serve: simulate submission without payload")
		}
		s := *req.Simulate
		spec, ws, _, err := s.sweep().check(prov)
		if err != nil {
			return req, "", err
		}
		protocol, err := checkProtocol(spec, s.Sampling)
		if err != nil {
			return req, "", err
		}
		s.Workload, s.Policy, s.Engine = ws[0], string(spec.Policy), spec.Engine.String()
		canon := SubmitRequest{Kind: KindSimulate, Simulate: &s}
		key := fmt.Sprintf("sim|%s|%s|q%d|%s", s.Engine, s.Policy, s.Quota, strings.Join(s.Workload, ",")) + protocol
		return canon, key, nil

	case KindSweep:
		if req.Sweep == nil {
			return req, "", badRequest("serve: sweep submission without payload")
		}
		s := *req.Sweep
		if len(s.Workloads) == 0 {
			return req, "", badRequest("serve: empty sweep")
		}
		spec, ws, _, err := s.check(prov)
		if err != nil {
			return req, "", err
		}
		protocol, err := checkProtocol(spec, s.Sampling)
		if err != nil {
			return req, "", err
		}
		s.Workloads, s.Policy, s.Engine = make([][]string, len(ws)), string(spec.Policy), spec.Engine.String()
		for i, w := range ws {
			s.Workloads[i] = w
		}
		canon := SubmitRequest{Kind: KindSweep, Sweep: &s}
		// Workload lists can be large; the key carries a digest plus the
		// shape so distinct sweeps cannot collide in practice.
		h := fnv.New64a()
		for _, wl := range s.Workloads {
			h.Write([]byte(strings.Join(wl, ",")))
			h.Write([]byte{'\n'})
		}
		key := fmt.Sprintf("sweep|%s|%s|q%d|n%d|%016x", s.Engine, s.Policy, s.Quota, len(s.Workloads), h.Sum64()) + protocol
		return canon, key, nil

	case KindWarm:
		if req.Warm == nil {
			return req, "", badRequest("serve: warm submission without payload")
		}
		wr := *req.Warm
		if len(wr.Products) == 0 {
			return req, "", badRequest("serve: empty warm plan")
		}
		seen := make(map[experiments.Request]bool, len(wr.Products))
		var norm []experiments.Request
		for _, p := range wr.Products {
			r, err := canonProduct(p)
			if err != nil {
				return req, "", err
			}
			if !seen[r] {
				seen[r] = true
				norm = append(norm, r)
			}
		}
		// Sorted products make the dedup key order-insensitive: two
		// shards naming the same set coalesce regardless of plan order.
		sort.Slice(norm, func(i, j int) bool {
			a, b := norm[i], norm[j]
			if a.Sim != b.Sim {
				return a.Sim < b.Sim
			}
			if a.Cores != b.Cores {
				return a.Cores < b.Cores
			}
			return a.Policy < b.Policy
		})
		products := make([]ProductRef, len(norm))
		h := fnv.New64a()
		for i, r := range norm {
			products[i] = ProductRef{Sim: string(r.Sim), Cores: r.Cores, Policy: string(r.Policy)}
			fmt.Fprintf(h, "%s|%d|%s\n", r.Sim, r.Cores, r.Policy)
		}
		wr.Products = products
		canon := SubmitRequest{Kind: KindWarm, Warm: &wr}
		return canon, fmt.Sprintf("warm|n%d|%016x", len(products), h.Sum64()), nil

	default:
		return req, "", badRequest("serve: unknown job kind %q", req.Kind)
	}
}

// canonProduct validates one wire product and returns its normalized
// campaign request.
func canonProduct(p ProductRef) (experiments.Request, error) {
	sim := experiments.Simulator(p.Sim)
	switch sim {
	case experiments.SimBadco, experiments.SimDetailed:
		if p.Cores <= 0 || p.Cores > multicore.MaxCores {
			return experiments.Request{}, badRequest("serve: product %q needs cores in [1, %d]", p.Sim, multicore.MaxCores)
		}
		if p.Policy == "" {
			return experiments.Request{}, badRequest("serve: product %q needs a policy", p.Sim)
		}
		// The product's run spec must validate; its policy is the only
		// field a warm request sets.
		if err := (multicore.Spec{Policy: cache.PolicyName(p.Policy)}).Validate(0); err != nil {
			return experiments.Request{}, badRequest("serve: %v", err)
		}
	case experiments.SimRef:
		if p.Cores <= 0 || p.Cores > multicore.MaxCores {
			return experiments.Request{}, badRequest("serve: product %q needs cores in [1, %d]", p.Sim, multicore.MaxCores)
		}
	case experiments.SimMPKI, experiments.SimModels:
	default:
		return experiments.Request{}, badRequest("serve: unknown product simulator %q", p.Sim)
	}
	r := experiments.Request{Sim: sim, Cores: p.Cores, Policy: cache.PolicyName(p.Policy)}
	return r.Normalized(), nil
}

// checkProtocol rejects a present-but-empty sampling field and returns
// the protocol's dedup-key suffix (multicore.Spec.Protocol): none for an
// exact run, "|w<warmup>" for a warmed one and "|smp<spec>" for a
// sampled one, so the three never coalesce onto each other.
func checkProtocol(spec multicore.Spec, sampling *multicore.SamplingSpec) (string, error) {
	if sampling != nil && !spec.Sampling.Enabled() {
		return "", badRequest("serve: empty sampling spec (omit the field for an exact run)")
	}
	return spec.Protocol("|"), nil
}
