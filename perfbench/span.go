package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call it makes. Spans of one pair, round or session share a group.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run measures end-to-end metrics.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	t     *tracer
	id    int
	group string
}

// root opens a span without a parent.
func (t *tracer) root(group, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open(0, group, name)
}

func (t *tracer) open(parent int, group, name string) spanRef {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return spanRef{t: t, id: id, group: group}
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.open(s.id, s.group, name)
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// layerStat is the summary of every closed span with one name.
type layerStat struct {
	Count int
	Self  time.Duration   // duration minus the time its children cover
	Durs  []time.Duration // whole durations, for medians
}

// summarize computes each span name's self time and durations. Children of
// one parent never overlap in this benchmark (every parent makes its calls
// one after another), so self time is the duration minus the children's sum.
func (t *tracer) summarize() (map[string]*layerStat, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make(map[int]int64)
	for _, sp := range t.spans {
		if sp.Parent != 0 && sp.End >= 0 {
			childSum[sp.Parent] += sp.End - sp.Start
		}
	}
	stats := make(map[string]*layerStat)
	var rootTotal time.Duration
	for _, sp := range t.spans {
		if sp.End < 0 {
			continue
		}
		st := stats[sp.Name]
		if st == nil {
			st = &layerStat{}
			stats[sp.Name] = st
		}
		d := sp.End - sp.Start
		st.Count++
		st.Self += time.Duration(d - childSum[sp.ID])
		st.Durs = append(st.Durs, time.Duration(d))
		if sp.Parent == 0 {
			rootTotal += time.Duration(d)
		}
	}
	return stats, rootTotal
}

// medianMS is the median whole duration of the spans named name, in ms
// (NaN when there are none).
func medianMS(stats map[string]*layerStat, name string) float64 {
	st := stats[name]
	if st == nil {
		return math.NaN()
	}
	xs := make([]float64, len(st.Durs))
	for i, d := range st.Durs {
		xs[i] = ms(d)
	}
	return median(xs)
}

// addSelfTimes reports each layer's share of the traced time it spent in
// its own code, and prints the per-layer table to stdout.
func (t *tracer) addSelfTimes(rep *report) {
	stats, total := t.summarize()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %-20s %8s %12s %8s\n", "span", "count", "self_ms", "self_%")
	for _, n := range names {
		st := stats[n]
		pct := 100 * float64(st.Self) / float64(total)
		fmt.Printf("# %-20s %8d %12.3f %8.3f\n", n, st.Count, float64(st.Self)/1e6, pct)
		rep.layer("self_pct."+n, pct)
	}
	rep.layer("span.count", float64(len(t.spans)))
}

// write saves every span as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
