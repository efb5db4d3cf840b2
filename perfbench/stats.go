package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapWatch records the peak live heap: the bytes the garbage collector
// found reachable at the end of each cycle. A finalizer on a sentinel
// object runs once per collection and re-arms itself, so every cycle is
// seen without polling. Live heap, unlike HeapAlloc, does not depend on
// how much garbage happened to accumulate before a collection.
type heapWatch struct {
	mu     sync.Mutex
	peak   uint64
	stop   bool
	sample []metrics.Sample
}

func newHeapWatch() *heapWatch {
	w := &heapWatch{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	sentinel := new([16]byte)
	runtime.SetFinalizer(sentinel, func(*[16]byte) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.stop {
			return
		}
		w.observeLocked()
		w.arm()
	})
}

func (w *heapWatch) observeLocked() {
	metrics.Read(w.sample)
	if v := w.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > w.peak {
		w.peak = v.Uint64()
	}
}

// Segment returns the peak live heap in MiB since the previous call (or
// since the watch started) and starts a new segment. A run reports the
// median of its segments' peaks: one collection that happens to land on
// a brief spike, or miss it, moves a single segment, not the result.
func (w *heapWatch) Segment() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := float64(w.peak) / (1 << 20)
	w.peak = 0
	return p
}

// Stop ends the watch.
func (w *heapWatch) Stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stop = true
}

// rtStats is a snapshot of the Go runtime counters the traced runs report.
type rtStats struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readRuntime() rtStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtStats{allocBytes: m.TotalAlloc, gcCycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

// runtimeMetrics fills the runtime.* layer metrics for ops operations
// performed between two snapshots.
func runtimeMetrics(out map[string]float64, before, after rtStats, ops int) {
	out["runtime.alloc_kb_per_op"] = ratio(float64(after.allocBytes-before.allocBytes)/1024, float64(ops))
	out["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	out["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
}
