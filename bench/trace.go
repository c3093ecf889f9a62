package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. ID is shared by every span of one solve or one
// kernel replay; Span numbers the record itself and Parent names the
// span that caused it (-1 for a root).
type span struct {
	ID       int                `json:"id"`
	Span     int                `json:"span"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Layer    string             `json:"layer"`
	Workload string             `json:"workload"`
	Rep      int                `json:"rep"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps the spans of one traced run in memory; write puts them
// out when the run ends. The mutex is for the rank goroutines of the
// message-passing replays, which record into the same tracer.
type tracer struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
	ids      int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// newID starts a new solve or replay.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// begin opens a span and returns its number.
func (t *tracer) begin(id, parent int, layer, name string, rep int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Span: i, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Rep: rep, StartNS: int64(time.Since(t.epoch)),
	})
	return i
}

// end closes span i and returns its duration in seconds.
func (t *tracer) end(i int, counts map[string]float64) float64 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNS = now
	t.spans[i].Counts = counts
	return float64(now-t.spans[i].StartNS) / 1e9
}

// childSeconds sums, by name, the durations of the direct children of
// span i. The span's self time is its duration minus all of them.
func (t *tracer) childSeconds(i int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for _, s := range t.spans[i+1:] {
		if s.Parent == i {
			out[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write appends the spans to path as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
