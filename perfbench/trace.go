package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the run
// ends and are then written out as JSON.
type span struct {
	Name    string             `json:"name"`
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // -1 for a root span
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer records the spans of one replay, all under one trace ID. A nil
// tracer runs the calls without recording anything.
type tracer struct {
	TraceID string `json:"trace_id"`
	Spans   []span `json:"spans"`
	t0      time.Time
	cur     int
}

func newTracer(id string) *tracer { return &tracer{TraceID: id, t0: time.Now(), cur: -1} }

// do runs fn inside a span named after the call it makes, as a child of
// the span open around it, and returns the span's index.
func (t *tracer) do(name string, fn func()) int {
	if t == nil {
		fn()
		return -1
	}
	id := len(t.Spans)
	t.Spans = append(t.Spans, span{Name: name, ID: id, Parent: t.cur, StartNs: int64(time.Since(t.t0))})
	parent := t.cur
	t.cur = id
	fn()
	t.cur = parent
	t.Spans[id].EndNs = int64(time.Since(t.t0))
	return id
}

// count attaches a count the call returned to a span.
func (t *tracer) count(id int, key string, v float64) {
	if t == nil || id < 0 {
		return
	}
	if t.Spans[id].Counts == nil {
		t.Spans[id].Counts = map[string]float64{}
	}
	t.Spans[id].Counts[key] += v
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.Spans))
	for _, s := range t.Spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(t.Spans))
	for i, s := range t.Spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return t.Spans[ch[a]].StartNs < t.Spans[ch[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range ch {
			lo, hi := max(t.Spans[c].StartNs, reach), min(t.Spans[c].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layer sums the self time, span count and counts of every span with the
// given name.
type layer struct {
	self   time.Duration
	spans  int
	counts map[string]float64
	selves []time.Duration
}

func (t *tracer) layers() map[string]*layer {
	self := t.selfTimes()
	out := map[string]*layer{}
	for i, s := range t.Spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{counts: map[string]float64{}}
			out[s.Name] = l
		}
		l.self += self[i]
		l.spans++
		l.selves = append(l.selves, self[i])
		for k, v := range s.Counts {
			l.counts[k] += v
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
