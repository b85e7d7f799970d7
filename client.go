package mcbench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"mcbench/internal/serve"
	"mcbench/internal/telemetry"
)

// Client talks to an mcbench serve instance: submit experiment,
// simulate and sweep jobs, follow their progress, fetch results, and
// browse the server's catalogues and persistent cache.
//
//	c, err := mcbench.NewClient("http://127.0.0.1:8080")
//	st, err := c.SubmitExperiment(ctx, "fig6", 4)
//	res, err := c.Wait(ctx, st.ID)
//	fmt.Print(res.Text)
//
// Identical in-flight submissions coalesce server-side: submitting a
// job another client already has running returns the same job ID with
// Deduped set, and both clients follow one computation.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	baseDelay  time.Duration
	maxBody    int64 // response-body cap (see bodyCap), maxResponseBytes outside tests

	// Transport telemetry, snapshotted by Stats. Standalone instruments
	// (registered in no registry — a client is not a scrape target):
	// every HTTP attempt counts and times itself, the retry loops count
	// re-attempts and honoured Retry-After hints, and exchanges that
	// exhaust their retries count as failures.
	reqCount   telemetry.Counter
	reqLatency telemetry.Histogram
	retries    telemetry.Counter
	retryAfter telemetry.Counter
	failures   telemetry.Counter
}

// ClientStats is a snapshot of a Client's transport counters (see
// Client.Stats). Latency quantiles are in seconds, over every HTTP
// attempt the client made (retries included).
type ClientStats struct {
	// Requests counts HTTP attempts (each retry is its own attempt).
	Requests int64 `json:"requests"`
	// Retries counts re-attempts after a retryable failure.
	Retries int64 `json:"retries"`
	// RetryAfterHonored counts retry pauses that used a server
	// Retry-After hint instead of computed backoff.
	RetryAfterHonored int64 `json:"retry_after_honored"`
	// Failures counts exchanges that returned an error to the caller
	// (retries exhausted, non-retryable status, or context death).
	Failures   int64   `json:"failures"`
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP95 float64 `json:"latency_p95_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
}

// Stats snapshots the client's transport counters: how many HTTP
// attempts it made, how many were retries, whether server backpressure
// hints (503 + Retry-After) were honoured, and the attempt latency
// distribution. Safe for concurrent use with in-flight calls.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests:          c.reqCount.Value(),
		Retries:           c.retries.Value(),
		RetryAfterHonored: c.retryAfter.Value(),
		Failures:          c.failures.Value(),
		LatencyP50:        c.reqLatency.Quantile(0.50) * 1e-9,
		LatencyP95:        c.reqLatency.Quantile(0.95) * 1e-9,
		LatencyP99:        c.reqLatency.Quantile(0.99) * 1e-9,
	}
}

// ClientOptions tunes a Client's resilience. The zero value means
// defaults (4 retries, 100ms base delay, a fresh http.Client).
type ClientOptions struct {
	// MaxRetries bounds how many times a failed request is re-attempted
	// (each request runs at most MaxRetries+1 times). 0 means the
	// default (4); negative disables retries entirely. Connection errors
	// and 503 rejections retry for every method — a 503 from the server
	// means the submission was rejected before it was enqueued, and
	// submissions are idempotent anyway (identical in-flight submissions
	// coalesce server-side, completed sweeps are served from cache) —
	// while 429/502/504 retry only idempotent GETs.
	MaxRetries int
	// BaseDelay seeds the exponential backoff between attempts
	// (default 100ms): delay n is BaseDelay·2ⁿ⁻¹, jittered ±50% and
	// capped at 5s. A server 503's Retry-After header overrides the
	// computed delay.
	BaseDelay time.Duration
	// HTTPClient replaces the underlying transport (proxies, test
	// doubles, custom TLS). nil means a fresh &http.Client{} with no
	// request timeout — pass deadline contexts to the calls instead;
	// Events long-polls are expected to dwell.
	HTTPClient *http.Client
}

// defaults for the zero ClientOptions.
const (
	defaultMaxRetries = 4
	defaultBaseDelay  = 100 * time.Millisecond
	maxRetryDelay     = 5 * time.Second
)

// maxResponseBytes caps every response body the client reads, so that a
// broken or hostile server (a fleet peer included) cannot exhaust the
// caller's memory. The largest legitimate responses are sweep results.
// Measured on suite benchmark names, a four-core workload takes ~420
// bytes of result for an exact sweep and ~820 for a sampled one, about
// 17 times its bytes in the submission. A sampled sweep of the whole
// four-core population (12,650 workloads) is then ~10 MB, and 256 MiB
// holds the result of the largest submission a server accepts (8 MiB)
// with room to spare.
const maxResponseBytes = 256 << 20

// maxCacheBytes caps GET /cache/{key}, one stored table that a fleet
// peer may answer. A value takes at most 25 bytes of JSON: a comma and
// up to 17 significant digits behind "0.00000" (encoding/json switches
// to an exponent below 1e-6). The largest table the paper's
// 22-benchmark suite has under the CLI's configurations, at any core
// count up to 64, is a BADCO table of 10,000 sampled workloads at 64
// cores: 640,000 values, at most 16.1 MB (15.3 MiB) with the row
// brackets. The reference IPC and MPKI tables hold 22 values. A larger
// table (a bigger population configured through the library, or a big
// scaled source) fails the fetch, which the store treats as a miss and
// recomputes locally.
const maxCacheBytes = 16 << 20

// maxMetricsBytes caps GET /metrics, which the fleet coordinator scrapes
// from every worker. A series takes ~120 bytes of snapshot JSON, and at
// most 250 with the longest labels. A server registers fewer than 2,300
// series: two per endpoint, about 2,100 lab product histograms (each
// simulator × core count up to 64 × policy × exact or sampled), and
// fewer than 100 others. That is under 600 KB; 4 MiB leaves room for
// growth.
const maxMetricsBytes = 4 << 20

// bodyCap returns the response-body cap of one request path: the
// endpoint's own cap where it has one, never above the client's.
func (c *Client) bodyCap(path string) int64 {
	switch {
	case strings.HasPrefix(path, "/cache/"):
		return min(c.maxBody, maxCacheBytes)
	case strings.HasPrefix(path, "/metrics"):
		return min(c.maxBody, maxMetricsBytes)
	}
	return c.maxBody
}

// NewClient validates the base URL ("http://host:port") and returns a
// client. With no options the client retries transient failures
// (connection errors, 503 queue-full rejections, and 429/502/504 on
// GETs) with exponential backoff and jitter; see ClientOptions.
func NewClient(baseURL string, opts ...ClientOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("mcbench: bad server URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("mcbench: server URL %q needs an http(s) scheme", baseURL)
	}
	var o ClientOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	c := &Client{
		base:       strings.TrimRight(u.String(), "/"),
		hc:         o.HTTPClient,
		maxRetries: o.MaxRetries,
		baseDelay:  o.BaseDelay,
		maxBody:    maxResponseBytes,
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	switch {
	case c.maxRetries == 0:
		c.maxRetries = defaultMaxRetries
	case c.maxRetries < 0:
		c.maxRetries = 0
	}
	if c.baseDelay <= 0 {
		c.baseDelay = defaultBaseDelay
	}
	return c, nil
}

// APIError is a non-2xx response from an mcbench server, inspectable
// via errors.As:
//
//	var ae *mcbench.APIError
//	if errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound { ... }
//
// (or just mcbench.IsNotFound(err) for that case).
type APIError struct {
	// StatusCode is the HTTP status the server answered with.
	StatusCode int
	// Message is the server's error text.
	Message string
	// RetryAfter is the server's Retry-After hint, when it sent one
	// (503 rejections do); zero otherwise.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("mcbench: server %d: %s", e.StatusCode, e.Message)
}

// IsNotFound reports whether err is a server 404 — an unknown job ID
// (e.g. after a server restart: job IDs do not survive restarts, only
// cached results do) or an unknown route.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound
}

// connError marks a failure that never produced a server response —
// connection refused, reset, timeout. Always safe to retry against this
// server: either the request never arrived, or its effects are
// idempotent (submissions coalesce, results are cached).
type connError struct{ err error }

func (e *connError) Error() string { return fmt.Sprintf("mcbench: %v", e.err) }
func (e *connError) Unwrap() error { return e.err }

// newAPIError builds the typed error from a non-2xx response.
func newAPIError(resp *http.Response, body []byte) *APIError {
	var payload struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &payload) == nil && payload.Error != "" {
		msg = payload.Error
	}
	ae := &APIError{StatusCode: resp.StatusCode, Message: msg}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// retryable reports whether the error is worth re-attempting for the
// method. Connection errors and 503s retry for every method (see
// ClientOptions.MaxRetries for why that is safe); 429/502/504 retry
// idempotent GETs only.
func retryable(method string, err error) bool {
	var ce *connError
	if errors.As(err, &ce) {
		return true
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	switch ae.StatusCode {
	case http.StatusServiceUnavailable:
		return true
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusGatewayTimeout:
		return method == http.MethodGet
	}
	return false
}

// retryDelay computes the pause before attempt n (1-based): the
// server's Retry-After when it sent one, else exponential backoff from
// BaseDelay with ±50% jitter, capped at maxRetryDelay. Jitter keeps a
// thundering herd of clients (every caller rejected by the same full
// queue) from re-converging on the same instant.
func (c *Client) retryDelay(n int, lastErr error) time.Duration {
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		c.retryAfter.Inc()
		return ae.RetryAfter
	}
	d := c.baseDelay << (n - 1)
	if d > maxRetryDelay || d <= 0 {
		d = maxRetryDelay
	}
	return d/2 + rand.N(d/2+1)
}

// sleepCtx pauses for d or until ctx dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do performs one JSON exchange with retries. A nil in means no body; a
// nil out discards the response payload.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("mcbench: %w", err)
		}
		payload = data
	}
	_, data, err := c.exchange(ctx, method, path, payload)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		c.failures.Inc() // an undecodable answer fails the exchange
		return fmt.Errorf("mcbench: decoding %s: %w", path, err)
	}
	return nil
}

// exchange performs one HTTP exchange with retries and returns the 2xx
// status and body. Connection errors, 503s and, for GETs, 429/502/504
// are retried with backoff; any other non-2xx response comes back as
// *APIError. A nil payload sends no body.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte) (int, []byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			if err := sleepCtx(ctx, c.retryDelay(attempt, lastErr)); err != nil {
				c.failures.Inc()
				return 0, nil, lastErr
			}
		}
		status, data, err := c.once(ctx, method, path, payload)
		if err == nil {
			return status, data, nil
		}
		lastErr = err
		if attempt >= c.maxRetries || !retryable(method, err) || ctx.Err() != nil {
			c.failures.Inc()
			return 0, nil, err
		}
	}
}

// once performs a single HTTP exchange, preserving the status for
// callers that dispatch on it (Result's 202-while-running).
func (c *Client) once(ctx context.Context, method, path string, payload []byte) (int, []byte, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, nil, fmt.Errorf("mcbench: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	defer func() {
		c.reqCount.Inc()
		c.reqLatency.ObserveDuration(time.Since(start))
	}()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, &connError{err}
	}
	defer resp.Body.Close()
	limit := c.bodyCap(path)
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return 0, nil, &connError{err}
	}
	if int64(len(data)) > limit {
		// Not a connError: a retry would read the same oversized body.
		return 0, nil, fmt.Errorf("mcbench: %s %s: response body exceeds the %d-byte cap", method, path, limit)
	}
	if resp.StatusCode >= 300 {
		return 0, nil, newAPIError(resp, data)
	}
	return resp.StatusCode, data, nil
}

// Metrics fetches the server's telemetry snapshot
// (GET /metrics?format=json): job counters, queue gauges, sweep counts,
// per-endpoint request latencies, lab phase breakdowns. For the
// Prometheus text form, scrape GET /metrics directly.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	var snap MetricsSnapshot
	if err := c.do(ctx, http.MethodGet, "/metrics?format=json", nil, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// FleetMetrics fetches a coordinator's aggregated per-worker telemetry
// view (GET /fleet/metrics): each live worker's queue depth, sweep
// counts and throughput, scraped by the coordinator in parallel. A 404
// means the server is not a fleet coordinator.
func (c *Client) FleetMetrics(ctx context.Context) (*FleetMetricsView, error) {
	var fm FleetMetricsView
	if err := c.do(ctx, http.MethodGet, "/fleet/metrics", nil, &fm); err != nil {
		return nil, err
	}
	return &fm, nil
}

// Health fetches /healthz: build identity, uptime, source, job stats.
func (c *Client) Health(ctx context.Context) (*ServerHealth, error) {
	var h ServerHealth
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// ServerExperiments fetches the server's registry catalogue.
func (c *Client) ServerExperiments(ctx context.Context) ([]ExperimentInfo, error) {
	var payload struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	if err := c.do(ctx, http.MethodGet, "/experiments", nil, &payload); err != nil {
		return nil, err
	}
	return payload.Experiments, nil
}

// Benches fetches the server's benchmark catalogue and source name.
func (c *Client) Benches(ctx context.Context) (source string, benches []BenchInfo, err error) {
	var payload struct {
		Source     string      `json:"source"`
		Benchmarks []BenchInfo `json:"benchmarks"`
	}
	if err := c.do(ctx, http.MethodGet, "/benches", nil, &payload); err != nil {
		return "", nil, err
	}
	return payload.Source, payload.Benchmarks, nil
}

// Cache lists the server's persistent result store, identities
// preserved (empty when the server runs without a cache directory).
func (c *Client) Cache(ctx context.Context) ([]CacheEntry, error) {
	var payload struct {
		Entries []CacheEntry `json:"entries"`
	}
	if err := c.do(ctx, http.MethodGet, "/cache", nil, &payload); err != nil {
		return nil, err
	}
	return payload.Entries, nil
}

// SubmitExperiment submits a registered experiment (cores 0 = the
// experiment's paper default). The returned status carries the job ID;
// Deduped is set when an identical in-flight job absorbed the
// submission.
func (c *Client) SubmitExperiment(ctx context.Context, name string, cores int) (*JobStatus, error) {
	return c.submit(ctx, serve.SubmitRequest{
		Kind:       serve.KindExperiment,
		Experiment: &serve.ExperimentRequest{Name: name, Cores: cores},
	})
}

// SubmitSimulate submits one ad-hoc workload. The options mirror
// Simulate: WithPolicy, WithSimulator, WithQuota, WithWarmup, WithCores
// and WithSampling (the server rejects invalid combinations exactly as
// the local driver would). WithTraceLen and WithSuite are rejected — the
// server's lab fixes both.
func (c *Client) SubmitSimulate(ctx context.Context, workload []string, opts ...Option) (*JobStatus, error) {
	o, err := serverOptions(opts)
	if err != nil {
		return nil, err
	}
	return c.submit(ctx, serve.SubmitRequest{
		Kind:     serve.KindSimulate,
		Simulate: &serve.SimulateRequest{Workload: workload, RunSpec: serve.NewRunSpec(o.spec, o.cores)},
	})
}

// SubmitSweep submits many ad-hoc workloads under one configuration.
func (c *Client) SubmitSweep(ctx context.Context, workloads [][]string, opts ...Option) (*JobStatus, error) {
	o, err := serverOptions(opts)
	if err != nil {
		return nil, err
	}
	return c.submit(ctx, serve.SubmitRequest{
		Kind:  serve.KindSweep,
		Sweep: &serve.SweepRequest{Workloads: workloads, RunSpec: serve.NewRunSpec(o.spec, o.cores)},
	})
}

// serverOptions resolves the public options into a server submission,
// rejecting the ones a remote lab cannot honour.
func serverOptions(opts []Option) (options, error) {
	o := buildOptions(opts)
	if o.fixedLen {
		return o, fmt.Errorf("mcbench: WithTraceLen applies to local simulation; a server's trace length is its lab's Config.TraceLen")
	}
	if o.suite != nil {
		return o, fmt.Errorf("mcbench: WithSuite applies to local simulation; a server's source is its lab's Config.Source")
	}
	return o, nil
}

func (c *Client) submit(ctx context.Context, req serve.SubmitRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job the server knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var payload struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/jobs", nil, &payload); err != nil {
		return nil, err
	}
	return payload.Jobs, nil
}

// Cancel cancels a queued or running job. Cancelling a settled job is a
// no-op; the returned status reports where it ended up.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/jobs/"+url.PathEscape(id)+"/cancel", struct{}{}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches a done job's result. While the job is still queued or
// running it returns (nil, false, nil); a failed or cancelled job is an
// error carrying the server's reason.
func (c *Client) Result(ctx context.Context, id string) (*JobResult, bool, error) {
	status, data, err := c.exchange(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return nil, false, err
	}
	switch status {
	case http.StatusAccepted:
		return nil, false, nil
	case http.StatusOK:
	default: // unreachable: exchange converts non-2xx into *APIError
		return nil, false, &APIError{StatusCode: status, Message: strings.TrimSpace(string(data))}
	}
	// A terminal non-done job answers 200 with its status wrapped.
	var settled struct {
		Status *JobStatus `json:"status"`
	}
	if json.Unmarshal(data, &settled) == nil && settled.Status != nil {
		return nil, true, fmt.Errorf("mcbench: job %s %s: %s", id, settled.Status.State, settled.Status.Error)
	}
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, true, fmt.Errorf("mcbench: decoding result: %w", err)
	}
	return &res, true, nil
}

// Events long-polls the job's progress log from the cursor (0 = start),
// invoking fn for each event in order, until the job settles, fn
// returns false, or ctx dies. It returns the final state.
//
// The follower is resilient: when a poll fails transiently (a dropped
// connection, a restarting reverse proxy) it reconnects and resumes
// from its last-seen cursor, so fn never sees an event twice and never
// skips one. Only MaxRetries consecutive failed polls — each of which
// already retried internally — or a non-transient error (a 404 for the
// job, say) end the follow.
func (c *Client) Events(ctx context.Context, id string, after int, fn func(JobEvent) bool) (JobState, error) {
	fails := 0
	for {
		var page struct {
			State  JobState   `json:"state"`
			Events []JobEvent `json:"events"`
		}
		path := fmt.Sprintf("/jobs/%s/events?after=%d&wait=30s", url.PathEscape(id), after)
		if err := c.do(ctx, http.MethodGet, path, nil, &page); err != nil {
			fails++
			if fails > c.maxRetries || !retryable(http.MethodGet, err) || ctx.Err() != nil {
				return "", err
			}
			if sleepCtx(ctx, c.retryDelay(fails, err)) != nil {
				return "", err
			}
			continue // reconnect; the cursor picks up where we left off
		}
		fails = 0
		for _, ev := range page.Events {
			after = ev.Seq
			if fn != nil && !fn(ev) {
				return page.State, nil
			}
		}
		if page.State.Terminal() {
			return page.State, nil
		}
	}
}

// waitPollFloor is the slowest Wait falls back to between status polls.
const waitPollFloor = 500 * time.Millisecond

// Wait follows the job until it settles and returns its result. A
// failed or cancelled job is an error carrying the server's reason.
//
// Wait rides the same resilience as Events and the retrying transport:
// it survives transient outages (including a server restart window) by
// re-polling from its last-seen cursor with backoff. If the server
// comes back having genuinely forgotten the job — job IDs do not
// survive restarts — Wait returns a 404 APIError; resubmitting is then
// cheap, since every sweep completed before the restart is served from
// the persistent cache.
func (c *Client) Wait(ctx context.Context, id string) (*JobResult, error) {
	state, err := c.Events(ctx, id, 0, nil)
	if err != nil {
		return nil, err
	}
	if state != JobDone {
		st, serr := c.Job(ctx, id)
		if serr != nil {
			return nil, serr
		}
		return nil, fmt.Errorf("mcbench: job %s %s: %s", id, st.State, st.Error)
	}
	// Settled done: the result is already published (the server stores
	// it before flipping the state), so one fetch suffices — with a
	// small retry for proxies that reorder.
	for {
		res, done, err := c.Result(ctx, id)
		if err != nil || done {
			return res, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(waitPollFloor):
		}
	}
}
