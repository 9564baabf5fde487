package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a campaign call, a shard, a job) share an op id; Parent is 0
// for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot ("service.Submit" is
// in layer "service").
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay for no bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int, name, op string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open starts a span whose end is filled in by close.
func (t *tracer) open(parent int, name, op string) int {
	now := time.Now()
	return t.add(parent, name, op, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(parent int, name, op string, fn func() error) error {
	id := t.open(parent, name, op)
	err := fn()
	t.close(id)
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other (two
// shards or two workers at once), so the covered part is the length of the
// union of the children's intervals, clipped to the parent; subtracting each
// child separately would count the overlap twice.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - unionLen(kids[s.ID], s.Start, s.End)
	}
	return self
}

// unionLen is the total length of the union of intervals, each clipped to
// [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	curA, curB := int64(0), int64(0)
	open := false
	for _, x := range clipped {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpanTable prints, per span name, the call count, total time and self
// time, grouped by layer.
func writeSpanTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct {
		layer, name     string
		n               int
		totalNs, selfNs int64
	}
	rows := make(map[string]*row)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{layer: s.layer(), name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.totalNs += s.End - s.Start
		r.selfNs += self[s.ID]
	}
	sorted := make([]*row, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].layer != sorted[j].layer {
			return sorted[i].layer < sorted[j].layer
		}
		return sorted[i].name < sorted[j].name
	})
	fmt.Fprintf(w, "%-12s %-28s %6s %12s %12s\n", "layer", "span", "calls", "total_ms", "self_ms")
	for _, r := range sorted {
		fmt.Fprintf(w, "%-12s %-28s %6d %12.3f %12.3f\n",
			r.layer, r.name, r.n, float64(r.totalNs)/1e6, float64(r.selfNs)/1e6)
	}
}
