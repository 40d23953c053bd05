package main

// In-memory span recording for traced runs. Spans are opened and closed in
// the harness's own code around each call into a layer of the program;
// nothing inside the program is instrumented. A nil *tracer records
// nothing, so the untraced run pays one nil check per span site.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Spans of one operation share TraceID;
// Parent is the SpanID of the enclosing span (0 for a root).
type span struct {
	TraceID uint64         `json:"trace_id"`
	SpanID  uint64         `json:"span_id"`
	Parent  uint64         `json:"parent"`
	Name    string         `json:"name"`
	Layer   string         `json:"layer"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer collects spans; safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// activeSpan is an open span; end closes it.
type activeSpan struct {
	t *tracer
	s span
}

// newTrace allocates a fresh trace identifier (0 from a nil tracer).
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// start opens a span under parent (nil for a root of a new trace).
func (t *tracer) start(parent *activeSpan, name, layer string) *activeSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := span{SpanID: id, Name: name, Layer: layer, StartNS: int64(time.Since(t.t0))}
	if parent != nil {
		s.TraceID, s.Parent = parent.s.TraceID, parent.s.SpanID
	} else {
		s.TraceID = t.newTrace()
	}
	return &activeSpan{t: t, s: s}
}

// record stores a span whose interval was measured elsewhere (a request
// timed from its due time, say); nil-safe.
func (t *tracer) record(parent *activeSpan, name, layer string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	sp := t.start(parent, name, layer)
	sp.s.StartNS = int64(start.Sub(t.t0))
	sp.s.EndNS = int64(end.Sub(t.t0))
	sp.s.Attrs = attrs
	t.mu.Lock()
	t.spans = append(t.spans, sp.s)
	t.mu.Unlock()
}

// end closes the span, attaching attrs; nil-safe.
func (a *activeSpan) end(attrs map[string]any) {
	if a == nil {
		return
	}
	a.s.EndNS = int64(time.Since(a.t.t0))
	a.s.Attrs = attrs
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// layerTime is the per-layer summary written beside the spans.
type layerTime struct {
	Spans  int   `json:"spans"`
	SelfNS int64 `json:"self_ns"`
}

// selfTimes computes each layer's self time: every span's duration minus
// the part of it that its child spans cover, summed per layer.
func selfTimes(spans []span) map[string]layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		covered := coveredNS(s, children[s.SpanID])
		lt := out[s.Layer]
		lt.Spans++
		lt.SelfNS += s.EndNS - s.StartNS - covered
		out[s.Layer] = lt
	}
	return out
}

// coveredNS returns how much of parent's interval the union of kids
// covers.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// write saves the trace as JSON: the spans in start order and the
// per-layer self times.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	raw, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Layers   map[string]layerTime `json:"self_ns_by_layer"`
		Spans    []span               `json:"spans"`
	}{workload, seed, selfTimes(spans), spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
