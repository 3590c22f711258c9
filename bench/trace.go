package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceDir is where traced runs flush their spans.
const traceDir = "bench/out"

// maxSliceSpans bounds how many of the traced slice's per-call spans the
// trace file keeps (all of them are recorded in memory and counted in
// trace.overhead_share); attribution and probe spans are always kept.
const maxSliceSpans = 20000

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public functions. Spans of one operation share Op;
// Parent is the ID of the span that caused this one (0 = root). Layer
// spans under an engine call are replays: the benchmark re-runs the
// layer's public function on the same input right after the engine call
// returns, so a child's interval follows its parent's instead of lying
// inside it, and self time is computed from durations.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the run's trace epoch
	End    int64  `json:"end_ns"`
	Units  int    `json:"units"` // rows, keys, records or transactions covered
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. One goroutine
// records at a time.
type recorder struct {
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<17)}
}

// op opens a new operation and returns its identifier.
func (r *recorder) op() int {
	r.ops++
	return r.ops
}

// run times fn as one span and returns the span's ID.
func (r *recorder) run(name string, op, parent, units int, fn func()) int {
	id := len(r.spans) + 1
	start := time.Since(r.epoch)
	fn()
	end := time.Since(r.epoch)
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: int64(start), End: int64(end), Units: units})
	return id
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the durations of its direct children.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// meanPerUnit is the total duration of the spans called name over the
// units they covered, in seconds; ok is false when none covered any.
func meanPerUnit(spans []span, name string) (float64, bool) {
	var dur, units int64
	for i := range spans {
		if spans[i].Name == name {
			dur += spans[i].dur()
			units += int64(spans[i].Units)
		}
	}
	if units == 0 {
		return 0, false
	}
	return float64(dur) / 1e9 / float64(units), true
}

// budgetRow is one line of the latency-budget table.
type budgetRow struct {
	layer string
	calls int
	self  int64 // ns
	share float64
}

// budget attributes the time of the operations rooted at the named
// engine calls to layers by self time. The roots' own self time — what
// no replayed layer accounts for — is the "(unattributed)" row; its
// share is the attribution-closure figure.
func budget(spans []span, roots ...string) (rows []budgetRow, unattributed float64) {
	isRoot := make(map[string]bool, len(roots))
	for _, n := range roots {
		isRoot[n] = true
	}
	ops := map[int]bool{}
	var total int64
	for i := range spans {
		if s := &spans[i]; s.Parent == 0 && isRoot[s.Name] {
			ops[s.Op] = true
			total += s.dur()
		}
	}
	if total == 0 {
		return nil, 0
	}
	self := selfTimes(spans)
	byLayer := map[string]*budgetRow{}
	for i := range spans {
		s := &spans[i]
		if !ops[s.Op] {
			continue
		}
		name := s.Name
		if s.Parent == 0 {
			name = "(unattributed)"
		}
		row := byLayer[name]
		if row == nil {
			row = &budgetRow{layer: name}
			byLayer[name] = row
		}
		row.calls++
		row.self += self[s.ID]
	}
	for _, row := range byLayer {
		row.share = float64(row.self) / float64(total)
		rows = append(rows, *row)
		if row.layer == "(unattributed)" {
			unattributed = row.share
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, unattributed
}

func printBudget(w io.Writer, workload string, rows []budgetRow) {
	fmt.Fprintf(w, "latency budget, %s (one caller, layers replayed on each call's input)\n", workload)
	fmt.Fprintf(w, "  %-32s %8s %12s %7s\n", "layer", "calls", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %8d %12.3f %6.1f%%\n", r.layer, r.calls, float64(r.self)/1e6, 100*r.share)
	}
}

// traceFile is the JSON document a traced run leaves behind.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SliceSpans are the traced slice's per-call spans, one per closed-
	// loop call, truncated to the first maxSliceSpans; SliceCalls is how
	// many were recorded.
	SliceCalls int    `json:"slice_calls"`
	SliceSpans []span `json:"slice_spans"`
	// Spans are the attribution pass and the standalone layer probes.
	Spans []span `json:"spans"`
}

func writeTrace(tf *traceFile) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
