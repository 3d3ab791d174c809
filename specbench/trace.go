package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them as trace-event JSON when
// the run ends. A span's layer is its name up to the first '.'. All
// methods are safe on a nil *tracer and do nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed interval. Spans of one job share Job; Parent is the
// index of the enclosing span, or -1.
type span struct {
	Name       string
	Job        string
	Parent     int
	Start, End time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, job, parent, time.Now(), time.Time{})
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an interval timed elsewhere and returns its id.
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its child spans, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		d := s.End.Sub(s.Start) - covered(s, children[i])
		self[layerOf(s.Name)] += d.Seconds()
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if b.IsZero() {
			continue
		}
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, times in microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as trace-event JSON, with extra in otherData.
// Spans of one job share a thread lane.
func (t *tracer) write(path string, extra map[string]any) error {
	t.mu.Lock()
	lanes := map[string]int{"": 0}
	evs := make([]traceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		lane, ok := lanes[s.Job]
		if !ok {
			lane = len(lanes)
			lanes[s.Job] = lane
		}
		args := map[string]any{"id": i, "parent": s.Parent}
		if s.Job != "" {
			args["job"] = s.Job
		}
		evs = append(evs, traceEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane, Args: args,
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": extra})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
