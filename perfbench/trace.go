package main

// The span recorder of the traced run. Spans are taken in the benchmark's
// own code around each call into a layer's public functions; they are kept
// in memory and written out as JSON lines when the run ends. A nil *tracer
// records nothing, so the untraced run pays one nil check per call site.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Parent is the span that caused it (0 for a root)
// and Op the operation it belongs to (0 outside any operation), so the
// spans of one lock operation share an Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// openSpan is a span in progress.
type openSpan struct {
	id, parent, op int64
	name           string
	start          time.Time
}

// begin opens a span; finish records it. Both are no-ops on a nil tracer.
func (t *tracer) begin(name string, parent, op int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{id: t.next.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

func (t *tracer) finish(o openSpan) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: o.id, Parent: o.parent, Op: o.op, Name: o.name,
		Start: int64(o.start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// durations returns the durations of every span named name, in recording
// order. Call it once the traced workload has finished.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// write stores the spans as JSON lines under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// perLayerZero lists every per-layer metric with its unit, at 0. A workload
// overwrites the metrics of the layers it calls; the rest stay 0 because
// that layer did no work in that workload.
func perLayerZero() map[string]metric {
	units := map[string]string{
		"netrun.round.us":                      "us",
		"netrun.gate.wait_rounds_p50":          "rounds",
		"netrun.gate.wait_rounds_p99":          "rounds",
		"netrun.http.acquire_overhead_us_p50":  "us",
		"netrun.http.release_us_p50":           "us",
		"netrun.http.release_us_p99":           "us",
		"netrun.http.redirects_per_op":         "count",
		"netrun.gate.lease_expired_per_1k_ops": "count",
		"netrun.round.wire_bytes":              "B",
		"netrun.round.allocs":                  "count",
		"netrun.round.barrier_stalls":          "count",
		"netrun.journal.heap_bytes_per_round":  "B",
		"netrun.gate.legit_round":              "rounds",
		"netrun.converge_ms":                   "ms",
		"netrun.replay.s":                      "s",
		"sim.step_us_p50":                      "us",
		"sim.step_us_p99":                      "us",
		"sim.moves_per_step":                   "count",
		"sim.pool.speedup":                     "ratio",
		"graph.diameter_s":                     "s",
		"e2e.latency_samples":                  "count",
		"e2e.latency_tail_pct":                 "%",
		"trace.overhead_pct":                   "%",
		"trace.spans":                          "count",
	}
	for _, id := range tableIDs() {
		units["experiments."+id+"_ms"] = "ms"
	}
	m := make(map[string]metric, len(units))
	for k, u := range units {
		m[k] = metric{Unit: u}
	}
	return m
}
