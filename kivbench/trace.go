package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one measured pass share
// Run; setup spans carry Run 0.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer times the calls the benchmark makes into the program. Timing is
// always taken, so traced and untraced phases run the same code; only a
// tracer with on set keeps the spans, in memory, until the run ends. Calls
// nest strictly (every workload runs on one goroutine), so the innermost
// open span is the parent of the next one.
type tracer struct {
	speed hostSpeed
	on    bool
	t0    time.Time
	run   int
	spans []span
	open  []int
}

type mark struct {
	id    int
	start time.Time
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string) mark {
	m := mark{start: time.Now()}
	if !t.on {
		return m
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	m.id = len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: m.id, Parent: parent, Run: t.run, Name: name,
		Start: float64(m.start.Sub(t.t0).Nanoseconds()) / 1e3,
	})
	t.open = append(t.open, m.id)
	return m
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(m mark) float64 {
	now := time.Now()
	if t.on {
		t.spans[m.id-1].End = float64(now.Sub(t.t0).Nanoseconds()) / 1e3
		t.open = t.open[:len(t.open)-1]
	}
	return now.Sub(m.start).Seconds()
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += (s.End - s.Start - child[s.ID]) / 1e3
	}
	return self
}

// totals sums span durations per name, in milliseconds.
func (t *tracer) totals() map[string]float64 {
	tot := map[string]float64{}
	for _, s := range t.spans {
		tot[s.Name] += (s.End - s.Start) / 1e3
	}
	return tot
}

// write dumps the spans as JSON into dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
