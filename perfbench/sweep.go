package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// The paper-sweep slice: the Tables III–VI problem types that exercise
// GEMM's square, short and thin shapes and GEMV's square and thin ones,
// each in both precisions. The sweeps run at a reduced d, one per kernel
// family: with core.DefaultValidation, GEMM time is spent in the
// validated kernels up to d and GEMV time in filling operands, and these
// limits give each a share of a pass that a change to either can move.
var sweepSlice = []struct {
	kernel  core.KernelKind
	problem string
}{
	{core.GEMM, "square"},
	{core.GEMM, "short_mn32_k"},
	{core.GEMM, "thin_k32"},
	{core.GEMV, "square"},
	{core.GEMV, "thin_n32"},
}

const (
	sweepGemmDim = 160
	sweepGemvDim = 512
	sweepIters   = 8
)

// sweepItem is one series of the slice.
type sweepItem struct {
	pt   core.ProblemType
	prec core.Precision
	cfg  core.Config
}

// sweepPlan draws the run's inputs from the seed: the system the slice
// runs on and the order of its series.
func sweepPlan(seed int64) (systems.System, []sweepItem, error) {
	rng := rand.New(rand.NewSource(seed))
	all := systems.All()
	sys := all[rng.Intn(len(all))]
	var items []sweepItem
	for _, s := range sweepSlice {
		pt, err := core.FindProblem(s.kernel, s.problem)
		if err != nil {
			return sys, nil, err
		}
		for _, prec := range []core.Precision{core.F32, core.F64} {
			cfg := core.DefaultConfig(sweepIters)
			cfg.MaxDim = sweepGemmDim
			if s.kernel == core.GEMV {
				cfg.MaxDim = sweepGemvDim
			}
			items = append(items, sweepItem{pt: pt, prec: prec, cfg: cfg})
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return sys, items, nil
}

// thresholdLine is one series' thresholds in a canonical text form; the
// digest of a pass is the hash of its lines in slice order.
func thresholdLine(sys string, it sweepItem, th [core.NumStrategies]core.Threshold) string {
	line := fmt.Sprintf("%s|%s|%s|%s", sys, it.pt.Kernel, it.pt.Name, it.prec)
	for _, st := range xfer.Strategies {
		line += fmt.Sprintf("|%s=%v:%s", st, th[st].Found, th[st].Dims)
	}
	return line + "\n"
}

// passResult is one sweep over the whole slice.
type passResult struct {
	wall      time.Duration
	series    []time.Duration
	digest    string
	validated int
	bad       []string // checksum mismatches
}

// sweepPass runs core.RunProblem with validation over the slice, the way
// the paper's benchmark produces its threshold tables.
func sweepPass(ctx context.Context, sys systems.System, items []sweepItem) (passResult, error) {
	var r passResult
	h := sha256.New()
	t0 := time.Now()
	for _, it := range items {
		s0 := time.Now()
		ser, err := core.RunProblem(ctx, sys, it.pt, it.prec, it.cfg)
		if err != nil {
			return r, err
		}
		r.series = append(r.series, time.Since(s0))
		h.Write([]byte(thresholdLine(sys.Name, it, ser.Thresholds)))
		r.validated += ser.ValidatedCount()
		for _, smp := range ser.ValidationFailures() {
			r.bad = append(r.bad, fmt.Sprintf("%s %s %s at %v: checksums %g vs %g",
				sys.Name, it.pt.Name, it.prec, smp.Dims, smp.CPUChecksum, smp.GPUChecksum))
		}
	}
	r.wall = time.Since(t0)
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// referenceDigest computes the slice's thresholds by direct
// core.RunProblem calls with validation off, outside set-up and timing.
// Validation never changes a threshold, so every validated pass must
// reproduce this digest.
func referenceDigest(ctx context.Context, sys systems.System, items []sweepItem) (string, error) {
	h := sha256.New()
	for _, it := range items {
		cfg := it.cfg
		cfg.Validate = core.Validation{}
		ser, err := core.RunProblem(ctx, sys, it.pt, it.prec, cfg)
		if err != nil {
			return "", err
		}
		h.Write([]byte(thresholdLine(sys.Name, it, ser.Thresholds)))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkPass counts a pass's series as operations and its checksum
// mismatches and digest differences as failures.
func checkPass(out *outcome, r passResult, ref string) {
	out.attempted += len(r.series)
	for _, b := range r.bad {
		out.fail("checksum mismatch: %s", b)
	}
	if r.validated == 0 {
		out.fail("pass validated no sample")
	}
	if r.digest != ref {
		out.fail("threshold digest %s differs from reference %s", r.digest[:12], ref[:12])
	}
}

// paperSweep is the offline batch: the paper's own workload.
//
// Set-up is one discarded warm-up pass, repeated. The timed phase runs
// passes on one goroutine ("low") and pairs of passes on two goroutines
// sweeping the same slice side by side ("high"). peak_heap_mb is the
// median over single passes of each pass's peak live heap.
func paperSweep(ctx context.Context, p params) (*outcome, error) {
	if p.traced {
		return paperSweepTraced(ctx, p)
	}
	out := newOutcome()
	var (
		sys    systems.System
		items  []sweepItem
		err    error
		passes []passResult
		setups []float64
	)
	for i := 0; i < p.setups; i++ {
		t0 := time.Now()
		sys, items, err = sweepPlan(p.seed)
		if err != nil {
			return nil, err
		}
		warm, err := sweepPass(ctx, sys, items)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		passes = append(passes, warm)
	}
	heap := newHeapWatch()
	defer heap.Stop()

	// One sweeper ("low") and two side by side ("high") alternate, two
	// single passes to one pair, so slow spells of the host fall on both.
	var low, high, peaks []float64
	series := 0
	var highWall time.Duration
	end := time.Now().Add(p.dur)
	for len(high) < 4 || time.Now().Before(end) {
		heap.Segment()
		for i := 0; i < 2; i++ {
			r, err := sweepPass(ctx, sys, items)
			if err != nil {
				return nil, err
			}
			passes = append(passes, r)
			low = append(low, r.wall.Seconds())
			peaks = append(peaks, heap.Segment())
		}
		var wg sync.WaitGroup
		res := make([]passResult, clients)
		errs := make([]error, clients)
		t0 := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				res[w], errs[w] = sweepPass(ctx, sys, items)
			}(w)
		}
		wg.Wait()
		highWall += time.Since(t0)
		for w := range res {
			if errs[w] != nil {
				return nil, errs[w]
			}
			passes = append(passes, res[w])
			high = append(high, res[w].wall.Seconds())
			series += len(res[w].series)
		}
	}

	ref, err := referenceDigest(ctx, sys, items)
	if err != nil {
		return nil, err
	}
	for _, r := range passes {
		checkPass(out, r, ref)
	}

	m := out.metrics
	m["setup_s"] = median(setups)
	m["sweep_s"] = median(low)
	m["peak_heap_mb"] = median(peaks)
	m["p50_ms.low"], m["p90_ms.low"] = 1e3*quantile(low, 0.5), 1e3*quantile(low, 0.9)
	m["p50_ms.high"], m["p90_ms.high"] = 1e3*quantile(high, 0.5), 1e3*quantile(high, 0.9)
	m["slo_rps"] = float64(series) / highWall.Seconds()
	out.report["system"] = sys.Name
	out.report["passes_low"], out.report["passes_high"] = len(low), len(high)
	out.report["digest"] = ref
	out.report["pass_peaks_mb"] = peaks
	return out, nil
}
