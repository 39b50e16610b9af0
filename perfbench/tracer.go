package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Round  int64  `json:"round"` // the round or pass the call belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, round int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured span (times in ns since base) and
// returns its id.
func (t *tracer) add(name string, parent int32, round, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round, Start: start, End: end})
	return id
}

// since converts a wall time to the tracer's ns clock.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.base).Nanoseconds()
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its children's intervals cover; overlapping
// children (concurrent calls) count once.
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		covered := coverage(children[s.ID], s.Start, s.End)
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.Total += float64(dur) / 1e6
		lt.Self += float64(dur-covered) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coverage is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func coverage(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = x[0], x[1], true
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write dumps the spans and their self-time table as JSON.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{selfTimes(t.spans), t.spans})
}

// report prints the self-time table.
func (t *tracer) report(w io.Writer) {
	t.mu.Lock()
	lts := selfTimes(t.spans)
	t.mu.Unlock()
	for _, lt := range lts {
		fmt.Fprintf(w, "# span %-28s n=%-7d total %10.2f ms  self %10.2f ms\n", lt.Name, lt.Count, lt.Total, lt.Self)
	}
}
