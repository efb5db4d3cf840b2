package main

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

// span is one timed call into a layer, recorded from the benchmark's own
// wrappers around the program's public functions and hooks. Spans of one
// request share Req; Parent is the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while a traced phase runs. Recording is off
// unless on is set, so the same wrapped program serves the untraced and
// the traced phases of one traced run.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open is each request's stack of open span IDs; a span begun for a
	// request takes the innermost open one as its parent, whichever
	// goroutine (client, gateway, replica) begins it.
	open map[uint64][]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[uint64][]int{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span for request req starting at at. It returns 0 when
// tracing is off; end(0) is a no-op.
func (t *tracer) begin(name string, req uint64, at time.Time) int {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if st := t.open[req]; req != 0 && len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ns(at)})
	if req != 0 {
		t.open[req] = append(t.open[req], id)
	}
	return id
}

func (t *tracer) end(id int, at time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = t.ns(at)
	st := t.open[sp.Req]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, sp.Req)
	} else {
		t.open[sp.Req] = st
	}
}

// record adds a finished span under an explicit parent request: the
// innermost span open for req when it is recorded, if any.
func (t *tracer) record(name string, req uint64, start, end time.Time) {
	if id := t.begin(name, req, start); id != 0 {
		t.end(id, end)
	}
}

// take returns the spans recorded so far and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	t.open = map[uint64][]int{}
	return out
}

// layerTimes is the self time of every span, summed per span name, and
// the per-request root durations: self time is a span's duration minus
// the part its direct children cover.
type layerTimes struct {
	self  map[string]time.Duration
	count map[string]int
	// durs and selfs hold each span's full and self duration in ms by
	// name, for percentiles.
	durs, selfs map[string][]float64
}

func selfTimes(spans []span) layerTimes {
	child := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	lt := layerTimes{
		self: map[string]time.Duration{}, count: map[string]int{},
		durs: map[string][]float64{}, selfs: map[string][]float64{},
	}
	for _, s := range spans {
		self := s.dur() - child[s.ID]
		if self < 0 {
			self = 0
		}
		lt.self[s.Name] += self
		lt.count[s.Name]++
		lt.durs[s.Name] = append(lt.durs[s.Name], ms(s.dur()))
		lt.selfs[s.Name] = append(lt.selfs[s.Name], ms(self))
	}
	return lt
}

// writeSpans writes the spans as JSON lines under PERFBENCH_TRACE_DIR
// (set by run.sh to a directory inside the checkout's build output). With
// the variable unset the spans are only summarised.
func writeSpans(name string, spans []span) (string, error) {
	dir := os.Getenv("PERFBENCH_TRACE_DIR")
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}
