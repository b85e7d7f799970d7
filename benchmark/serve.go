package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mcbench"
)

// serveCores is the core count of the experiment jobs and of the BADCO
// tables set-up warms.
const serveCores = 2

// serveExperiments are the experiment jobs of the serve-mixed cycle: each
// reads the warmed two-core tables and runs its own Monte-Carlo or
// analysis step on every request.
var serveExperiments = []string{"fig1", "fig5", "fig6", "ablation-metrics", "guideline", "methods"}

// jobMix is the serve-mixed cycle's composition: per kind, how many of its
// 120 jobs are of that kind. No measured traffic exists to weight the
// kinds by, so the mix is a synthetic one that covers each job path of
// the server equally: 24 jobs of each kind.
var jobMix = []struct {
	kind string
	n    int
}{{"badco", 24}, {"detailed", 24}, {"warmed", 24}, {"sampled", 24}, {"experiment", 24}}

// serveJob is one submission of the serve-mixed cycle.
type serveJob struct {
	kind       string
	workload   []string
	opts       []mcbench.Option
	experiment string
}

// serveSession is a running server with one client. Two workers share the
// client, so at most two jobs and two connections are in flight.
type serveSession struct {
	traceLen int
	client   *mcbench.Client
	stop     func() error
	jobs     []serveJob
	texts    map[string]string // experiment → text of its first run
}

func (s *serveSession) size() int { return len(s.jobs) }

func (s *serveSession) close() error { return s.stop() }

func (s *serveSession) do(ctx context.Context, i int, traced bool) (outcome, error) {
	job := s.jobs[i]
	var (
		st  *mcbench.JobStatus
		err error
	)
	if job.kind == "experiment" {
		st, err = s.client.SubmitExperiment(ctx, job.experiment, serveCores)
	} else {
		st, err = s.client.SubmitSimulate(ctx, job.workload, job.opts...)
	}
	if err != nil {
		return outcome{}, err
	}
	res, err := s.client.Wait(ctx, st.ID)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{kind: job.kind, settled: time.Now()}
	if job.kind == "experiment" {
		if want := s.texts[job.experiment]; res.Text != want {
			return outcome{}, fmt.Errorf("experiment %s: text differs from its first run", job.experiment)
		}
		d := newDigest()
		d.bytes([]byte(res.Text))
		out.digest = d.sum()
	} else {
		if len(res.Results) != 1 {
			return outcome{}, fmt.Errorf("%s %v: %d results", job.kind, job.workload, len(res.Results))
		}
		r := res.Results[0]
		if out.digest, err = checkSim(len(job.workload), r.IPC, r.Cycles, r.CIHalf); err != nil {
			return outcome{}, fmt.Errorf("%s %v: %w", job.kind, job.workload, err)
		}
		uops := float64(uint64(len(job.workload))*r.Warmup) + simulatedUops(r.Instructions, r.Cycles)
		if r.Windows > 0 {
			uops = float64(len(job.workload) * s.traceLen)
		}
		out.muops = uops / 1e6
	}
	if traced {
		if out.status, err = s.client.Job(ctx, st.ID); err != nil {
			return outcome{}, err
		}
	}
	return out, nil
}

// startServer runs mcbench.Serve in-process on an ephemeral port and
// returns a client for it and the function that drains it and waits for
// Serve to return.
func startServer(ctx context.Context, cfg mcbench.Config) (*mcbench.Client, func() error, error) {
	sctx, cancel := context.WithCancel(ctx)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- mcbench.Serve(sctx, cfg, mcbench.ServeOptions{
			Addr:    "127.0.0.1:0",
			OnReady: func(addr string) { ready <- addr },
		})
	}()
	stop := func() error { cancel(); return <-done }
	select {
	case addr := <-ready:
		c, err := mcbench.NewClient("http://" + addr)
		if err != nil {
			return nil, nil, errors.Join(err, stop())
		}
		return c, stop, nil
	case err := <-done:
		cancel()
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
}

// warmServer brings a server to the state the measured phase expects:
// the two-core BADCO tables of the five paper policies are loaded (from
// the cache directory when an earlier server computed them) and each
// experiment has run once. It returns each experiment's text.
func warmServer(ctx context.Context, c *mcbench.Client) (map[string]string, error) {
	var refs []mcbench.ProductRef
	for _, p := range mcbench.Policies() {
		refs = append(refs, mcbench.ProductRef{Sim: "badco", Cores: serveCores, Policy: string(p)})
	}
	st, err := c.SubmitWarm(ctx, refs)
	if err != nil {
		return nil, err
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		return nil, err
	}
	texts := map[string]string{}
	for _, name := range serveExperiments {
		st, err := c.SubmitExperiment(ctx, name, serveCores)
		if err != nil {
			return nil, err
		}
		res, err := c.Wait(ctx, st.ID)
		if err != nil {
			return nil, err
		}
		texts[name] = res.Text
	}
	return texts, nil
}

// serveJobs draws the seeded serve-mixed cycle: jobMix's counts of each
// kind over balanced workloads and random paper policies, in random order.
func serveJobs(seed int64, traceLen uint64) []serveJob {
	rng := rand.New(rand.NewSource(seed))
	names := mcbench.Benchmarks()
	pols := mcbench.Policies()
	var jobs []serveJob
	for _, m := range jobMix {
		cores := 2
		if m.kind == "badco" {
			cores = 4
		}
		for i, w := range balanced(rng, names, cores, m.n) {
			job := serveJob{kind: m.kind, workload: w,
				opts: []mcbench.Option{mcbench.WithPolicy(pols[rng.Intn(len(pols))])}}
			switch m.kind {
			case "badco":
				job.opts = append(job.opts, mcbench.WithSimulator(mcbench.BADCO))
			case "warmed":
				job.opts = append(job.opts, mcbench.WithWarmup(traceLen/2))
			case "sampled":
				job.opts = append(job.opts, mcbench.WithSampling(traceLen/4, traceLen/20, traceLen/20))
			case "experiment":
				job = serveJob{kind: m.kind, experiment: serveExperiments[i%len(serveExperiments)]}
			}
			jobs = append(jobs, job)
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// prepareServe computes the served tables into dir with a first server,
// untimed. The timed set-up then restarts a server over dir, so that the
// measured server reads its tables back through the results store.
func prepareServe(ctx context.Context, seed int64, dir string, sz sizes) (setupFunc, error) {
	cfg := mcbench.QuickConfig()
	cfg.Seed = seed
	cfg.TraceLen = sz.traceLen
	cfg.CacheDir = dir
	c, stop, err := startServer(ctx, cfg)
	if err != nil {
		return nil, err
	}
	texts, err := warmServer(ctx, c)
	if err := errors.Join(err, stop()); err != nil {
		return nil, err
	}
	jobs := serveJobs(seed, uint64(sz.traceLen))
	return func(ctx context.Context) (session, error) {
		c, stop, err := startServer(ctx, cfg)
		if err != nil {
			return nil, err
		}
		got, err := warmServer(ctx, c)
		if err == nil {
			for _, name := range serveExperiments {
				if got[name] != texts[name] {
					err = fmt.Errorf("experiment %s: text after a restart differs from the first server's", name)
				}
			}
		}
		if err != nil {
			return nil, errors.Join(err, stop())
		}
		return &serveSession{traceLen: sz.traceLen, client: c, stop: stop, jobs: jobs, texts: texts}, nil
	}, nil
}
