package serve

// The product event stream pin: the message and data map every lab
// product event becomes on a job's event log, byte for byte, for each
// product simulator in each lifecycle state.

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"mcbench/internal/experiments"
)

func TestProductEventStreamPinned(t *testing.T) {
	products := []struct {
		req experiments.Request
		// id stamps the product's identity onto an event, field by field
		// through the names Sim, Cores and Policy, so the pin holds for
		// any ProductEvent layout that keeps those names.
		id func(ev *experiments.ProductEvent)
		// ident is the data the identity contributes.
		ident map[string]any
	}{
		{
			experiments.Request{Sim: "badco", Cores: 2, Policy: "LRU"},
			func(ev *experiments.ProductEvent) { ev.Sim, ev.Cores, ev.Policy = "badco", 2, "LRU" },
			map[string]any{"sim": "badco", "cores": 2, "policy": "LRU"},
		},
		{
			experiments.Request{Sim: "detailed", Cores: 4, Policy: "DRRIP"},
			func(ev *experiments.ProductEvent) { ev.Sim, ev.Cores, ev.Policy = "detailed", 4, "DRRIP" },
			map[string]any{"sim": "detailed", "cores": 4, "policy": "DRRIP"},
		},
		{
			experiments.Request{Sim: "ref", Cores: 8},
			func(ev *experiments.ProductEvent) { ev.Sim, ev.Cores = "ref", 8 },
			map[string]any{"sim": "ref", "cores": 8},
		},
		{
			experiments.Request{Sim: "mpki"},
			func(ev *experiments.ProductEvent) { ev.Sim = "mpki" },
			map[string]any{"sim": "mpki"},
		},
		{
			experiments.Request{Sim: "models"},
			func(ev *experiments.ProductEvent) { ev.Sim = "models" },
			map[string]any{"sim": "models"},
		},
	}
	states := []struct {
		name string
		ev   experiments.ProductEvent
		data map[string]any // on top of the product's identity
	}{
		{"start", experiments.ProductEvent{Phase: "start"},
			map[string]any{"phase": "start"}},
		{"done", experiments.ProductEvent{Phase: "done", Rows: 12, Elapsed: 1500 * time.Millisecond},
			map[string]any{"phase": "done", "rows": 12, "elapsed_ms": int64(1500)}},
		{"cached", experiments.ProductEvent{Phase: "done", Cached: true, Rows: 7},
			map[string]any{"phase": "done", "cached": true, "rows": 7, "elapsed_ms": int64(0)}},
		{"failed", experiments.ProductEvent{Phase: "done", Err: errors.New("boom"), Elapsed: time.Second},
			map[string]any{"phase": "done", "error": "boom"}},
	}
	// The rendered messages, indexed [product][state].
	msgs := [][]string{
		{"badco c2 LRU: computing", "badco c2 LRU: 12 rows in 1.5s", "badco c2 LRU: 7 rows (cache)", "badco c2 LRU: boom"},
		{"detailed c4 DRRIP: computing", "detailed c4 DRRIP: 12 rows in 1.5s", "detailed c4 DRRIP: 7 rows (cache)", "detailed c4 DRRIP: boom"},
		{"ref c8: computing", "ref c8: 12 rows in 1.5s", "ref c8: 7 rows (cache)", "ref c8: boom"},
		{"mpki: computing", "mpki: 12 rows in 1.5s", "mpki: 7 rows (cache)", "mpki: boom"},
		{"models: computing", "models: 12 rows in 1.5s", "models: 7 rows (cache)", "models: boom"},
	}
	// The wire bytes of one product's data in each state, pinned for the
	// badco table (the identity keys sort among the state keys).
	wire := []string{
		`{"cores":2,"phase":"start","policy":"LRU","sim":"badco"}`,
		`{"cores":2,"elapsed_ms":1500,"phase":"done","policy":"LRU","rows":12,"sim":"badco"}`,
		`{"cached":true,"cores":2,"elapsed_ms":0,"phase":"done","policy":"LRU","rows":7,"sim":"badco"}`,
		`{"cores":2,"error":"boom","phase":"done","policy":"LRU","sim":"badco"}`,
	}
	for pi, p := range products {
		for si, st := range states {
			ev := st.ev
			p.id(&ev)
			j := &job{wake: make(chan struct{})}
			r := newRouter()
			r.register(j, []experiments.Request{p.req})
			r.dispatch(ev)
			evs, _, _ := j.eventsAfter(0)
			if len(evs) != 1 || evs[0].Type != "product" {
				t.Fatalf("%s %s: events %+v, want one product event", p.ident["sim"], st.name, evs)
			}
			if got := productMsg(ev); got != msgs[pi][si] || evs[0].Msg != got {
				t.Errorf("%s %s: msg %q (logged %q), want %q", p.ident["sim"], st.name, got, evs[0].Msg, msgs[pi][si])
			}
			want := map[string]any{}
			for k, v := range p.ident {
				want[k] = v
			}
			for k, v := range st.data {
				want[k] = v
			}
			if !reflect.DeepEqual(evs[0].Data, want) {
				t.Errorf("%s %s: data %#v, want %#v", p.ident["sim"], st.name, evs[0].Data, want)
			}
			if pi == 0 {
				got, err := json.Marshal(evs[0].Data)
				if err != nil || string(got) != wire[si] {
					t.Errorf("badco %s: wire %s (err %v), want %s", st.name, got, err, wire[si])
				}
			}
		}
	}
}
