package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Thread lanes of the trace: the client driving operations and, for the
// service workload, the executor goroutine settling runs.
const (
	laneClient   = 1
	laneExecutor = 2
)

// tracer keeps spans and instant events in memory; they are written out
// once, when the benchmark ends. A nil tracer records nothing, which is
// how untraced runs measure with tracing off.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	instants []instant
	open     map[int][]int // lane -> stack of open span ids
}

type span struct {
	id, parent int // parent 0: a root span
	lane       int
	layer      string
	name       string
	start, end time.Time
}

type instant struct {
	lane  int
	layer string
	name  string
	at    time.Time
	args  map[string]any
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[int][]int{}}
}

// begin opens a span on a lane; the innermost open span of that lane is
// its parent. The returned function closes it.
func (t *tracer) begin(lane int, layer, name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if st := t.open[lane]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{id: id, parent: parent, lane: lane, layer: layer, name: name, start: time.Now()})
	t.open[lane] = append(t.open[lane], id)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id-1].end = time.Now()
		st := t.open[lane]
		if len(st) > 0 && st[len(st)-1] == id {
			t.open[lane] = st[:len(st)-1]
		}
		t.mu.Unlock()
	}
}

// record adds a finished span whose times were measured elsewhere (a
// derived interval, such as a run's queue wait) and returns its id.
func (t *tracer) record(lane int, layer, name string, start, end time.Time, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, lane: lane, layer: layer, name: name, start: start, end: end})
	return id
}

// mark records an instant event.
func (t *tracer) mark(lane int, layer, name string, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.instants = append(t.instants, instant{lane: lane, layer: layer, name: name, at: time.Now(), args: args})
	t.mu.Unlock()
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the trace in Chrome trace-event JSON (Perfetto and
// chrome://tracing open it directly).
func (t *tracer) writeChrome(w io.Writer, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	us := func(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }
	events := []traceEvent{
		{Name: "thread_name", Ph: "M", PID: 1, TID: laneClient, Args: map[string]any{"name": "client"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: laneExecutor, Args: map[string]any{"name": "executor"}},
	}
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		dur := us(s.end) - us(s.start)
		events = append(events, traceEvent{Name: s.name, Cat: s.layer, Ph: "X", TS: us(s.start), Dur: &dur,
			PID: 1, TID: s.lane, Args: map[string]any{"id": s.id, "parent": s.parent}})
	}
	for _, in := range t.instants {
		events = append(events, traceEvent{Name: in.name, Cat: in.layer, Ph: "i", S: "t", TS: us(in.at),
			PID: 1, TID: in.lane, Args: in.args})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
}

// layerTime is one row of the per-layer self-time table.
type layerTime struct {
	layer           string
	spans           int
	totalMS, selfMS float64
}

// selfTimes aggregates spans by layer. A span's self time is its
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 && !s.end.IsZero() {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		row := rows[s.layer]
		if row == nil {
			row = &layerTime{layer: s.layer}
			rows[s.layer] = row
		}
		dur := s.end.Sub(s.start)
		row.spans++
		row.totalMS += ms(dur)
		row.selfMS += ms(dur - covered(s, children[s.id]))
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMS > out[j].selfMS })
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for _, k := range kids {
		start, end := k.start, k.end
		if start.Before(parent.start) {
			start = parent.start
		}
		if end.After(parent.end) {
			end = parent.end
		}
		if !end.After(start) {
			continue
		}
		if curEnd.IsZero() || start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = start, end
		} else if end.After(curEnd) {
			curEnd = end
		}
	}
	return total + curEnd.Sub(curStart)
}

// writeSelfTable prints the per-layer self-time table.
func writeSelfTable(w io.Writer, rows []layerTime) {
	var all float64
	for _, r := range rows {
		all += r.selfMS
	}
	fmt.Fprintf(w, "%-12s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * r.selfMS / all
		}
		fmt.Fprintf(w, "%-12s %8d %12.3f %12.3f %6.1f%%\n", r.layer, r.spans, r.totalMS, r.selfMS, share)
	}
}
