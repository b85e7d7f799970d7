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
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
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

// SubmitRequest is the wire form of a job submission: a kind plus the
// matching payload. Exactly one payload must be set.
type SubmitRequest struct {
	Kind       Kind               `json:"kind"`
	Experiment *ExperimentRequest `json:"experiment,omitempty"`
	Simulate   *SimulateRequest   `json:"simulate,omitempty"`
	Sweep      *SweepRequest      `json:"sweep,omitempty"`
	Warm       *WarmRequest       `json:"warm,omitempty"`
}

// ProductRef names one campaign product on the wire: the serve form of
// experiments.Request, the product's one identity. Cores and Policy are
// meaningful per the simulator, exactly as in the campaign planner.
// Refs and ProductRef.request are the two conversions between the forms.
type ProductRef struct {
	Sim    string `json:"sim"`
	Cores  int    `json:"cores,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// Refs renders campaign requests in their wire form.
func Refs(reqs []experiments.Request) []ProductRef {
	refs := make([]ProductRef, len(reqs))
	for i, r := range reqs {
		refs[i] = ProductRef{Sim: string(r.Sim), Cores: r.Cores, Policy: string(r.Policy)}
	}
	return refs
}

// request returns the normalized campaign request p names. canonProduct
// validates the result; every later caller holds canonical refs.
func (p ProductRef) request() experiments.Request {
	return experiments.Request{Sim: experiments.Simulator(p.Sim), Cores: p.Cores, Policy: cache.PolicyName(p.Policy)}.Normalized()
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

// RunSpec is the wire form of an ad-hoc run spec (multicore.Spec plus
// the core count), shared by simulate and sweep submissions. NewRunSpec
// and RunSpec.spec are the two conversions between the forms.
type RunSpec struct {
	// Policy is the LLC replacement policy (default "LRU").
	Policy string `json:"policy,omitempty"`
	// Engine names the simulator, as multicore.Engine.String does
	// ("detailed", the default, or "badco").
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

// NewRunSpec renders a run spec and core count in their wire form; an
// exact run has no sampling field.
func NewRunSpec(spec multicore.Spec, cores int) RunSpec {
	r := RunSpec{
		Policy: string(spec.Policy), Engine: spec.Engine.String(),
		Quota: spec.Quota, Warmup: spec.Warmup, Cores: cores,
	}
	if spec.Sampling != (multicore.SamplingSpec{}) {
		r.Sampling = &spec.Sampling
	}
	return r
}

// spec returns the run spec r names, with the policy and engine
// defaults filled in. An unknown engine and a present-but-empty
// sampling field are submitErrors.
func (r RunSpec) spec() (multicore.Spec, error) {
	spec := multicore.Spec{Policy: cache.PolicyName(r.Policy), Quota: r.Quota, Warmup: r.Warmup}
	if spec.Policy == "" {
		spec.Policy = cache.LRU
	}
	switch r.Engine {
	case "", multicore.Detailed.String():
	case multicore.BADCO.String():
		spec.Engine = multicore.BADCO
	default:
		return spec, badRequest("serve: unknown engine %q (want %q or %q)", r.Engine, multicore.Detailed, multicore.BADCO)
	}
	if r.Sampling != nil {
		if !r.Sampling.Enabled() {
			return spec, badRequest("serve: empty sampling spec (omit the field for an exact run)")
		}
		spec.Sampling = *r.Sampling
	}
	return spec, nil
}

// SimulateRequest asks for one ad-hoc workload simulation. The trace
// length is the server lab's Config.TraceLen.
type SimulateRequest struct {
	// Workload is one benchmark name per core. A single name with
	// Cores > 1 is replicated onto all cores.
	Workload []string `json:"workload"`
	RunSpec
}

// SweepRequest is SimulateRequest over many workloads at once.
type SweepRequest struct {
	Workloads [][]string `json:"workloads"`
	RunSpec
}

// adhoc returns the run spec and workloads of a simulate or sweep
// submission; a missing payload and an empty sweep are submitErrors.
func (r SubmitRequest) adhoc() (RunSpec, [][]string, error) {
	switch {
	case r.Kind == KindSimulate && r.Simulate != nil:
		return r.Simulate.RunSpec, [][]string{r.Simulate.Workload}, nil
	case r.Kind == KindSweep && r.Sweep != nil:
		if len(r.Sweep.Workloads) == 0 {
			return RunSpec{}, nil, badRequest("serve: empty sweep")
		}
		return r.Sweep.RunSpec, r.Sweep.Workloads, nil
	}
	return RunSpec{}, nil, badRequest("serve: %s submission without payload", r.Kind)
}

// check is the pre-enqueue validation of an ad-hoc run: it checks the
// spec and workloads with multicore.Check at the provider's trace
// length, normalizes the policy and engine names in place, and returns
// the spec and the resolved workloads; a rejection is a submitError.
func (r *RunSpec) check(prov bench.Provider, workloads [][]string) (multicore.Spec, []multicore.Workload, error) {
	spec, err := r.spec()
	if err != nil {
		return spec, nil, err
	}
	ws, _, err := multicore.Check(prov, spec, workloads, r.Cores)
	switch {
	case errors.Is(err, multicore.ErrUnknownBenchmark):
		return spec, nil, badRequest("serve: %v (see /benches)", err)
	case err != nil:
		return spec, nil, badRequest("serve: %v", err)
	}
	r.Policy, r.Engine = string(spec.Policy), spec.Engine.String()
	return spec, ws, nil
}

// submitError is a validation failure; the handler maps it to 400.
type submitError struct{ msg string }

func (e *submitError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &submitError{msg: fmt.Sprintf(format, args...)}
}

// canonicalize validates the submission against the source and registry,
// fills in defaults, resolves workloads, and returns the canonical
// request plus its dedup key. An ad-hoc run's key ends in its protocol
// suffix (multicore.Spec.Protocol), so exact, warmed and sampled runs
// never coalesce onto each other. traceLen is the lab's per-benchmark
// trace length; it resolves a zero quota when validating the warmup
// window.
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

	case KindSimulate, KindSweep:
		rs, workloads, err := req.adhoc()
		if err != nil {
			return req, "", err
		}
		spec, ws, err := rs.check(prov, workloads)
		if err != nil {
			return req, "", err
		}
		if req.Kind == KindSimulate {
			s := SimulateRequest{Workload: ws[0], RunSpec: rs}
			key := fmt.Sprintf("sim|%s|%s|q%d|%s", rs.Engine, rs.Policy, rs.Quota, strings.Join(s.Workload, ",")) + spec.Protocol("|")
			return SubmitRequest{Kind: KindSimulate, Simulate: &s}, key, nil
		}
		s := SweepRequest{Workloads: make([][]string, len(ws)), RunSpec: rs}
		// Workload lists can be large; the key carries a digest plus the
		// shape so distinct sweeps cannot collide in practice.
		h := fnv.New64a()
		for i, w := range ws {
			s.Workloads[i] = w
			h.Write([]byte(strings.Join(w, ",")))
			h.Write([]byte{'\n'})
		}
		key := fmt.Sprintf("sweep|%s|%s|q%d|n%d|%016x", rs.Engine, rs.Policy, rs.Quota, len(ws), h.Sum64()) + spec.Protocol("|")
		return SubmitRequest{Kind: KindSweep, Sweep: &s}, key, nil

	case KindWarm:
		if req.Warm == nil {
			return req, "", badRequest("serve: warm submission without payload")
		}
		wr := *req.Warm
		if len(wr.Products) == 0 {
			return req, "", badRequest("serve: empty warm plan")
		}
		plan := make([]experiments.Request, len(wr.Products))
		for i, p := range wr.Products {
			r, err := canonProduct(p)
			if err != nil {
				return req, "", err
			}
			plan[i] = r
		}
		plan = experiments.Distinct(plan)
		// Sorted products make the dedup key order-insensitive: two
		// shards naming the same set coalesce regardless of plan order.
		slices.SortFunc(plan, func(a, b experiments.Request) int {
			return cmp.Or(cmp.Compare(a.Sim, b.Sim), cmp.Compare(a.Cores, b.Cores), cmp.Compare(a.Policy, b.Policy))
		})
		h := fnv.New64a()
		for _, r := range plan {
			fmt.Fprintf(h, "%s|%d|%s\n", r.Sim, r.Cores, r.Policy)
		}
		wr.Products = Refs(plan)
		canon := SubmitRequest{Kind: KindWarm, Warm: &wr}
		return canon, fmt.Sprintf("warm|n%d|%016x", len(plan), h.Sum64()), nil

	default:
		return req, "", badRequest("serve: unknown job kind %q", req.Kind)
	}
}

// canonProduct validates one wire product and returns its normalized
// campaign request.
func canonProduct(p ProductRef) (experiments.Request, error) {
	r := p.request()
	switch r.Sim {
	case experiments.SimBadco, experiments.SimDetailed:
		if p.Cores <= 0 || p.Cores > multicore.MaxCores {
			return experiments.Request{}, badRequest("serve: product %q needs cores in [1, %d]", p.Sim, multicore.MaxCores)
		}
		if p.Policy == "" {
			return experiments.Request{}, badRequest("serve: product %q needs a policy", p.Sim)
		}
		// The product's run spec must validate; its policy is the only
		// field a warm request sets.
		if err := (multicore.Spec{Policy: r.Policy}).Validate(0); err != nil {
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
	return r, nil
}
