package serve

// The job manager: a bounded queue feeding a fixed worker pool, with
// in-flight request deduplication. Identical submissions (by canonical
// key) coalesce onto one job while it is queued or running — N clients
// asking for the same sweep cost one computation — and every job keeps
// an append-only event log that the streaming handlers replay and follow.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"mcbench/internal/faultinject"
	"mcbench/internal/multicore"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's progress log. Seq starts at 1 and is the
// resume cursor of the streaming endpoints (?after=SEQ).
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	// Type is "queued", "started", "plan", "product", "models", "done",
	// "failed" or "canceled".
	Type string `json:"type"`
	Msg  string `json:"msg,omitempty"`
	// Data carries type-specific fields (product events: sim, cores,
	// policy, phase, cached, rows; models events: models, built).
	Data map[string]any `json:"data,omitempty"`
}

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// Key is the canonical request identity submissions dedup by.
	Key     string    `json:"key"`
	State   State     `json:"state"`
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
	// Started/Finished are zero until the job reaches that point.
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Coalesced counts duplicate submissions that rode this job.
	Coalesced int `json:"coalesced"`
	// Events is the current length of the event log.
	Events int `json:"events"`
	// Deduped is set on submission responses when an already in-flight
	// job was returned instead of a new one.
	Deduped bool `json:"deduped,omitempty"`
}

// TableResult is the structured form of an experiment table.
type TableResult struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// SimResult is the wire form of one simulated workload.
type SimResult struct {
	Workload     []string  `json:"workload"`
	Policy       string    `json:"policy"`
	Engine       string    `json:"engine"`
	IPC          []float64 `json:"ipc"`
	Cycles       []uint64  `json:"cycles"`
	Instructions uint64    `json:"instructions"`
	// Warmup is the per-thread warmup prefix the measurement excluded
	// (0 when the run measured from reset).
	Warmup uint64 `json:"warmup,omitempty"`
	// Sampling echoes the sampling schedule of a sampled run, with the
	// per-core 95% confidence half-width and coefficient of variation of
	// the window IPCs and the number of detailed windows measured. All
	// four are absent on exact runs.
	Sampling *multicore.SamplingSpec `json:"sampling,omitempty"`
	CIHalf   []float64               `json:"ci_half,omitempty"`
	CV       []float64               `json:"cv,omitempty"`
	Windows  int                     `json:"windows,omitempty"`
}

// JobResult is a completed job's payload: a table (experiment jobs) or
// simulation results (simulate: one, sweep: one per workload).
type JobResult struct {
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// Table and Text are set for experiment jobs.
	Table *TableResult `json:"table,omitempty"`
	Text  string       `json:"text,omitempty"`
	// Results is set for simulate/sweep jobs.
	Results []SimResult `json:"results,omitempty"`
	// Warmed is set for warm jobs: the number of distinct products the
	// plan named (the tables themselves live in the persistent cache).
	Warmed int `json:"warmed,omitempty"`
}

// job is the manager's internal job record.
type job struct {
	id  string
	key string
	req SubmitRequest

	mu        sync.Mutex
	state     State
	err       string
	result    *JobResult
	events    []Event
	wake      chan struct{} // closed and replaced on every append
	cancel    context.CancelFunc
	created   time.Time
	started   time.Time
	finished  time.Time
	coalesced int
}

// status snapshots the job.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Kind: j.req.Kind, Key: j.key, State: j.state, Error: j.err,
		Created: j.created, Started: j.started, Finished: j.finished,
		Coalesced: j.coalesced, Events: len(j.events),
	}
}

// emit appends an event and wakes every watcher.
func (j *job) emit(typ, msg string, data map[string]any) {
	j.mu.Lock()
	j.events = append(j.events, Event{
		Seq: len(j.events) + 1, Time: time.Now(), Type: typ, Msg: msg, Data: data,
	})
	close(j.wake)
	j.wake = make(chan struct{})
	j.mu.Unlock()
}

// eventsAfter returns the events past the cursor, a channel that closes
// on the next append, and the state observed in the same snapshot. The
// final event is appended under the same lock that flips the state (see
// finishFrom), so a terminal state implies the final event is already
// in the returned log — a follower that drains to the end never misses
// it, and a response pairing this state with these events can never
// claim "done" while withholding the done event.
func (j *job) eventsAfter(after int) (evs []Event, wake <-chan struct{}, state State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if after < len(j.events) {
		evs = append(evs, j.events[after:]...)
	}
	return evs, j.wake, j.state
}

// finishFrom atomically flips the job from one specific state to a
// terminal state and appends the matching final event. It reports false
// when the job is not in the from state (a concurrent transition won the
// race), which makes cancel-vs-start and cancel-vs-cancel races
// harmless.
func (j *job) finishFrom(from, final State, errText, msg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return false
	}
	j.state = final
	j.finished = time.Now()
	j.err = errText
	if msg == "" {
		msg = errText
	}
	j.events = append(j.events, Event{
		Seq: len(j.events) + 1, Time: time.Now(), Type: string(final), Msg: msg,
	})
	close(j.wake)
	j.wake = make(chan struct{})
	return true
}

// Stats counts the manager's traffic. Executed is the number of jobs
// that actually ran — the dedup tests assert Submitted - Coalesced
// collapses onto it.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Coalesced int64 `json:"coalesced"`
	Executed  int64 `json:"executed"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	// Panics counts jobs that died to a recovered panic (a subset of
	// Failed). Non-zero panics mean an experiment has a crash bug the
	// server absorbed — worth alerting on even though service continued.
	Panics int64 `json:"panics"`
	// TimedOut counts jobs killed by the per-job wall-clock timeout
	// (a subset of Failed).
	TimedOut int64 `json:"timed_out"`
}

// Errors the handlers map to HTTP statuses.
var (
	// ErrDraining rejects submissions while the server drains (503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrQueueFull rejects submissions beyond the queue bound (503).
	ErrQueueFull = errors.New("serve: job queue full")
)

// manager owns the job table, the dedup index and the worker pool.
type manager struct {
	run func(ctx context.Context, j *job) (*JobResult, error)

	// jobTimeout bounds each job's wall-clock run time; 0 means no bound.
	jobTimeout time.Duration

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signals workers when pending grows or drain starts
	jobs     map[string]*job
	order    []string        // submission order, for listing
	inflight map[string]*job // canonical key -> queued/running job
	settled  []string        // terminal job ids, oldest first (retention)
	keep     int             // settled-job retention cap
	pending  []*job          // FIFO backlog; a slice (not a channel) so a
	// cancelled queued job can be removed and its slot freed immediately
	queueCap int
	seq      int
	draining bool
	stats    Stats

	wg sync.WaitGroup
}

// newManager starts a pool of workers executing run for each job. keep
// bounds how many settled jobs (with their event logs and results) stay
// queryable; beyond it the oldest are evicted, so a long-running server
// under sustained traffic holds O(keep) finished jobs, not all of them.
func newManager(workers, queueDepth, keep int, jobTimeout time.Duration, run func(ctx context.Context, j *job) (*JobResult, error)) *manager {
	if workers <= 0 {
		workers = 2
	}
	if queueDepth <= 0 {
		queueDepth = 16
	}
	if keep <= 0 {
		keep = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &manager{
		run:        run,
		jobTimeout: jobTimeout,
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       map[string]*job{},
		inflight:   map[string]*job{},
		keep:       keep,
		queueCap:   queueDepth,
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// submit canonicalizes nothing — the caller already did — and either
// coalesces onto an in-flight job with the same key or enqueues a new
// one. The returned bool reports dedup.
func (m *manager) submit(req SubmitRequest, key string) (*job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrDraining
	}
	m.stats.Submitted++
	if j := m.inflight[key]; j != nil {
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		m.stats.Coalesced++
		return j, true, nil
	}
	if len(m.pending) >= m.queueCap {
		m.stats.Submitted--
		return nil, false, ErrQueueFull
	}
	m.seq++
	j := &job{
		id:      fmt.Sprintf("j%06d", m.seq),
		key:     key,
		req:     req,
		state:   StateQueued,
		wake:    make(chan struct{}),
		created: time.Now(),
	}
	m.pending = append(m.pending, j)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.inflight[key] = j
	m.stats.Queued++
	m.cond.Signal()
	j.emit("queued", "job accepted", nil)
	return j, false, nil
}

// dequeue blocks until a job is pending or the manager drains; ok is
// false when the worker should exit.
func (m *manager) dequeue() (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) == 0 && !m.draining {
		m.cond.Wait()
	}
	if len(m.pending) == 0 {
		return nil, false
	}
	j := m.pending[0]
	m.pending = m.pending[1:]
	return j, true
}

// removePending unlinks a job from the backlog (a cancelled queued job),
// freeing its queue slot immediately. It reports whether the job was
// still pending.
func (m *manager) removePending(j *job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range m.pending {
		if p == j {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// get returns a job by id.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list snapshots every job in submission order.
func (m *manager) list() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// cancelJob cancels a queued or running job. Unknown ids report false;
// terminal jobs are left alone (ok, already settled).
func (m *manager) cancelJob(id string) (JobStatus, bool) {
	j, ok := m.get(id)
	if !ok {
		return JobStatus{}, false
	}
	// Not yet picked up: settle it here and unlink it from the backlog
	// so its queue slot frees immediately (the worker's own
	// queued→running transition guards the race — finishFrom loses it
	// cleanly if the job just started). A job the worker already holds
	// but has not transitioned is settled here and skipped there.
	if j.finishFrom(StateQueued, StateCanceled, "", "canceled before start") {
		m.removePending(j)
		m.settle(j, StateQueued, StateCanceled, false)
		return j.status(), true
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel() // the worker observes ctx death and settles the job
	}
	return j.status(), true
}

// settle atomically retires a job: one critical section decrements the
// from-state gauge (queued or running), bumps the terminal counter (and
// the timeout sub-counter when the wall-clock bound fired), drops the
// in-flight index entry and enforces the settled-job retention cap.
// Folding the gauge and the counter into one section keeps every Stats
// snapshot consistent — no /healthz reader can observe a job counted
// done while still counted running, or the reverse. The job's own
// terminal transition must already have happened (finishFrom).
func (m *manager) settle(j *job, from, final State, timedOut bool) {
	m.mu.Lock()
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	switch from {
	case StateQueued:
		m.stats.Queued--
	case StateRunning:
		m.stats.Running--
	}
	switch final {
	case StateDone:
		m.stats.Done++
	case StateFailed:
		m.stats.Failed++
	case StateCanceled:
		m.stats.Canceled++
	}
	if timedOut {
		m.stats.TimedOut++
	}
	m.settled = append(m.settled, j.id)
	for len(m.settled) > m.keep {
		old := m.settled[0]
		m.settled = m.settled[1:]
		delete(m.jobs, old)
		for i, id := range m.order {
			if id == old {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
	m.mu.Unlock()
}

// worker executes pending jobs until the manager drains.
func (m *manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.dequeue()
		if !ok {
			return
		}
		m.runOne(j)
	}
}

// runOne drives one job through its lifecycle.
func (m *manager) runOne(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()
	m.mu.Lock()
	m.stats.Queued--
	m.stats.Running++
	m.stats.Executed++
	m.mu.Unlock()
	j.emit("started", string(j.req.Kind)+" running", nil)

	// The wall-clock bound nests inside the cancel context: a fired
	// deadline with ctx still alive is unambiguously a timeout, not a
	// client cancel or a server drain.
	runCtx := ctx
	if m.jobTimeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, m.jobTimeout)
		defer tcancel()
	}

	result, err := m.execute(runCtx, j)

	final, errText, msg := StateDone, "", "job complete"
	timedOut := false
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// A timeout is a failure of the job, not a cancellation: the
		// client asked for work the server's policy refused to finish.
		final, errText, msg = StateFailed, fmt.Sprintf("job exceeded timeout %s", m.jobTimeout), ""
		timedOut = true
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		final, errText, msg = StateCanceled, err.Error(), ""
	default:
		final, errText, msg = StateFailed, err.Error(), ""
	}
	// Publish the result before the terminal transition: a client that
	// observes a done state must find the result already there.
	if err == nil && result != nil {
		j.mu.Lock()
		j.result = result
		j.mu.Unlock()
	}
	j.finishFrom(StateRunning, final, errText, msg)
	m.settle(j, StateRunning, final, timedOut)
}

// execute invokes the job body with panic isolation: a panicking
// experiment fails its own job — stack preserved in the event log,
// counted in Stats.Panics — while the worker, its pool and every other
// job keep going. Without this one crashing experiment kills the whole
// server and every queued job with it.
//
// Fault-injection site: "serve.job" (inject a job failure or stall).
func (m *manager) execute(ctx context.Context, j *job) (result *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.mu.Lock()
			m.stats.Panics++
			m.mu.Unlock()
			j.emit("panic", fmt.Sprintf("panic: %v", r),
				map[string]any{"stack": string(debug.Stack())})
			result, err = nil, fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	faultinject.Sleep("serve.job")
	if err := faultinject.Error("serve.job"); err != nil {
		return nil, err
	}
	return m.run(ctx, j)
}

// activeWarmJobs counts the warm jobs currently queued or running — the
// fleet shards this node presently owns, reported by /healthz. The
// nested job-lock acquisition under the manager lock mirrors submit's
// coalesce path, so the lock order is consistent.
func (m *manager) activeWarmJobs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.req.Kind != KindWarm {
			continue
		}
		j.mu.Lock()
		if !j.state.Terminal() {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// snapshotStats returns the current counters.
func (m *manager) snapshotStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// drain stops accepting submissions, cancels every queued and running
// job, and waits for the workers to exit. Completed sweeps were already
// persisted as they finished (the lab saves each table at sweep
// completion), so a drained server loses only in-flight work — a restart
// over the same cache directory resumes from everything that completed.
func (m *manager) drain() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.draining = true
	backlog := m.pending
	m.pending = nil
	m.cond.Broadcast()
	m.mu.Unlock()
	// Settle the backlog, then cut the running jobs.
	for _, j := range backlog {
		if j.finishFrom(StateQueued, StateCanceled, "", "server draining") {
			m.settle(j, StateQueued, StateCanceled, false)
		}
	}
	m.cancelBase()
	m.wg.Wait()
}
