package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory: one span around each
// of the benchmark's own calls into a layer, linked to the operation that
// caused it. Spans are written out once, when the run ends. A recorder
// that is off records nothing.
type recorder struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // index of the causing span; -1 for a root
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	// Attr links the span to the program's own record of the same work:
	// the serve response's traceparent.
	Attr string `json:"attr,omitempty"`
}

func newRecorder(on bool) *recorder { return &recorder{on: on, origin: time.Now()} }

// begin reserves a root or parent span whose interval finish fills in.
func (r *recorder) begin(name string, parent int32) int32 {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent})
	return int32(len(r.spans) - 1)
}

// finish sets the interval of a span from begin.
func (r *recorder) finish(i int32, start, end time.Time) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].Start = start.Sub(r.origin).Nanoseconds()
	r.spans[i].Dur = end.Sub(start).Nanoseconds()
	r.mu.Unlock()
}

// add records a complete span and returns its index.
func (r *recorder) add(name string, parent int32, start, end time.Time, attr string) int32 {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent,
		Start: start.Sub(r.origin).Nanoseconds(), Dur: end.Sub(start).Nanoseconds(), Attr: attr})
	return int32(len(r.spans) - 1)
}

// end records a span from start to now and returns now, the next
// sibling's start.
func (r *recorder) end(name string, parent int32, start time.Time) time.Time {
	now := time.Now()
	r.add(name, parent, start, now, "")
	return now
}

// layerTime is one span name's aggregate: self time is the span's
// duration minus the part its child spans cover.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (r *recorder) summary() []layerTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	for i, s := range r.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		lt.Count++
		lt.TotalMs += float64(s.Dur) / 1e6
		lt.SelfMs += float64(s.Dur-child[i]) / 1e6
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// traceFile is what a traced run writes: the fingerprint, the benchmark's
// spans and their per-name aggregates, the deltas of the program's public
// aggregates, and the serve tier's own request traces.
type traceFile struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Metrics     map[string]metric  `json:"metrics"`
	Layers      []layerTime        `json:"layers"`
	Aggregates  map[string]float64 `json:"aggregates"`
	Requests    json.RawMessage    `json:"request_traces,omitempty"`
	Spans       []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
