package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. All spans of one run share
// the tracer's trace ID; Parent is 0 for the run's root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// tracer keeps a traced run's spans in memory until write. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	traceID string
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer {
	return &tracer{traceID: fmt.Sprintf("%016x", time.Now().UnixNano())}
}

// newID reserves a span ID, for a span whose children end before it does.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, start.UnixNano(), end.UnixNano()})
	t.mu.Unlock()
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent uint64, start, end time.Time) uint64 {
	id := t.newID()
	t.record(id, parent, name, start, end)
	return id
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceID string `json:"trace_id"`
		Spans   []span `json:"spans"`
	}{t.traceID, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
