package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// kernelTally accumulates the computed work of the replayed kernels.
type kernelTally struct {
	gemmFlops, gemvBytes float64
	operandBytes         float64
	calls, validated     int
	bad                  int
}

// replayValidation re-runs, span by span, the checksum validation that
// core.RunProblem performs on ser's samples: the same shapes (the
// runner's rule, sample index % Every == 0 and FLOPs within MaxFlops),
// the same seeded operands, the same two kernels and the same checksum
// comparison, each timed from outside.
func replayValidation(tr *tracer, req uint64, it sweepItem, ser *core.Series, k *kernelTally) {
	v := it.cfg.Validate
	for idx, smp := range ser.Samples {
		if idx%v.Every != 0 || smp.FlopsPerIter > v.MaxFlops {
			continue
		}
		k.validated++
		d := smp.Dims
		es := float64(it.prec.ElemSize())
		var c1, c2 float64
		var t [5]time.Time
		t[0] = time.Now()
		switch {
		case it.pt.Kernel == core.GEMM && it.prec == core.F64:
			a, b := matrix.NewDense64(d.M, d.K), matrix.NewDense64(d.K, d.N)
			rng := matrix.NewRNG(matrix.DefaultSeed)
			a.Fill(rng)
			b.Fill(rng)
			cOpt, cRef := matrix.NewDense64(d.M, d.N), matrix.NewDense64(d.M, d.N)
			t[1] = time.Now()
			blas.OptDgemm(blas.NoTrans, blas.NoTrans, d.M, d.N, d.K, it.cfg.Alpha, a.Data, a.Ld, b.Data, b.Ld, it.cfg.Beta, cOpt.Data, cOpt.Ld)
			t[2] = time.Now()
			blas.RefDgemm(blas.NoTrans, blas.NoTrans, d.M, d.N, d.K, it.cfg.Alpha, a.Data, a.Ld, b.Data, b.Ld, it.cfg.Beta, cRef.Data, cRef.Ld)
			t[3] = time.Now()
			c1, c2 = cOpt.Checksum(), cRef.Checksum()
		case it.pt.Kernel == core.GEMM:
			a, b := matrix.NewDense32(d.M, d.K), matrix.NewDense32(d.K, d.N)
			rng := matrix.NewRNG(matrix.DefaultSeed)
			a.Fill(rng)
			b.Fill(rng)
			cOpt, cRef := matrix.NewDense32(d.M, d.N), matrix.NewDense32(d.M, d.N)
			al, be := float32(it.cfg.Alpha), float32(it.cfg.Beta)
			t[1] = time.Now()
			blas.OptSgemm(blas.NoTrans, blas.NoTrans, d.M, d.N, d.K, al, a.Data, a.Ld, b.Data, b.Ld, be, cOpt.Data, cOpt.Ld)
			t[2] = time.Now()
			blas.RefSgemm(blas.NoTrans, blas.NoTrans, d.M, d.N, d.K, al, a.Data, a.Ld, b.Data, b.Ld, be, cRef.Data, cRef.Ld)
			t[3] = time.Now()
			c1, c2 = cOpt.Checksum(), cRef.Checksum()
		case it.prec == core.F64:
			a, x := matrix.NewDense64(d.M, d.N), matrix.NewVector64(d.N)
			rng := matrix.NewRNG(matrix.DefaultSeed)
			a.Fill(rng)
			x.Fill(rng)
			yOpt, yRef := matrix.NewVector64(d.M), matrix.NewVector64(d.M)
			t[1] = time.Now()
			blas.OptDgemv(blas.NoTrans, d.M, d.N, it.cfg.Alpha, a.Data, a.Ld, x.Data, 1, it.cfg.Beta, yOpt.Data, 1)
			t[2] = time.Now()
			blas.RefDgemv(blas.NoTrans, d.M, d.N, it.cfg.Alpha, a.Data, a.Ld, x.Data, 1, it.cfg.Beta, yRef.Data, 1)
			t[3] = time.Now()
			c1, c2 = yOpt.Checksum(), yRef.Checksum()
		default:
			a, x := matrix.NewDense32(d.M, d.N), matrix.NewVector32(d.N)
			rng := matrix.NewRNG(matrix.DefaultSeed)
			a.Fill(rng)
			x.Fill(rng)
			yOpt, yRef := matrix.NewVector32(d.M), matrix.NewVector32(d.M)
			al, be := float32(it.cfg.Alpha), float32(it.cfg.Beta)
			t[1] = time.Now()
			blas.OptSgemv(blas.NoTrans, d.M, d.N, al, a.Data, a.Ld, x.Data, 1, be, yOpt.Data, 1)
			t[2] = time.Now()
			blas.RefSgemv(blas.NoTrans, d.M, d.N, al, a.Data, a.Ld, x.Data, 1, be, yRef.Data, 1)
			t[3] = time.Now()
			c1, c2 = yOpt.Checksum(), yRef.Checksum()
		}
		if !matrix.ChecksumsMatch(c1, c2) {
			k.bad++
		}
		t[4] = time.Now()
		kind := "gemm"
		if it.pt.Kernel == core.GEMV {
			kind = "gemv"
			k.gemvBytes += es * float64(d.M*d.N+d.N+d.M)
			k.operandBytes += es * float64(d.M*d.N+d.N+2*d.M)
		} else {
			k.gemmFlops += float64(smp.FlopsPerIter)
			k.operandBytes += es * float64(d.M*d.K+d.K*d.N+2*d.M*d.N)
		}
		k.calls += 2
		tr.record("matrix.fill", req, t[0], t[1])
		tr.record("blas.opt_"+kind, req, t[1], t[2])
		tr.record("blas.ref_"+kind, req, t[2], t[3])
		tr.record("matrix.checksum", req, t[3], t[4])
	}
}

// simProbe times the timing models alone on every sample of one pass,
// calling them directly the way core.RunProblem does (one CPU and three
// GPU evaluations per sample). It returns the pass's model time and the
// number of model calls.
func simProbe(sys systems.System, items []sweepItem, series []*core.Series) (time.Duration, int, error) {
	calls := 0
	t0 := time.Now()
	for i, it := range items {
		es := it.prec.ElemSize()
		beta0 := it.cfg.Beta == 0
		for _, smp := range series[i].Samples {
			d := smp.Dims
			var err error
			if it.pt.Kernel == core.GEMM {
				_, err = sys.CPU.TimeGemm(es, d.M, d.N, d.K, beta0, it.cfg.Iterations)
			} else {
				_, err = sys.CPU.TimeGemv(es, d.M, d.N, beta0, it.cfg.Iterations)
			}
			if err != nil {
				return 0, 0, err
			}
			for _, st := range xfer.Strategies {
				if it.pt.Kernel == core.GEMM {
					_, err = sys.GPU.TimeGemm(st, es, d.M, d.N, d.K, beta0, it.cfg.Iterations)
				} else {
					_, err = sys.GPU.TimeGemv(st, es, d.M, d.N, beta0, it.cfg.Iterations)
				}
				if err != nil {
					return 0, 0, err
				}
			}
			calls += modelCallsPerSample
		}
	}
	return time.Since(t0), calls, nil
}

// layerOf maps a span name onto the module it times.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	switch l {
	case "pass":
		return "core"
	case "request":
		return "loadgen"
	}
	return l
}

// paperSweepTraced alternates untraced validated passes with traced ones.
// A traced pass runs core.RunProblem with validation off (the core and
// sim layers) and replays the validation through the matrix and blas
// entry points, so its spans split the same work by module.
func paperSweepTraced(ctx context.Context, p params) (*outcome, error) {
	out := newOutcome()
	zeroLayers(out)
	sys, items, err := sweepPlan(p.seed)
	if err != nil {
		return nil, err
	}
	warm, err := sweepPass(ctx, sys, items)
	if err != nil {
		return nil, err
	}
	passes := []passResult{warm}
	tr := newTracer()
	var untraced, traced []float64
	var tally kernelTally
	var lastSeries []*core.Series
	samples := 0
	before := readRuntime()
	end := time.Now().Add(p.dur)
	for req := uint64(1); len(traced) < 3 || time.Now().Before(end); req++ {
		r, err := sweepPass(ctx, sys, items)
		if err != nil {
			return nil, err
		}
		passes = append(passes, r)
		untraced = append(untraced, r.wall.Seconds())

		tr.on.Store(true)
		t0 := time.Now()
		root := tr.begin("pass", req, t0)
		lastSeries = lastSeries[:0]
		for _, it := range items {
			cfg := it.cfg
			cfg.Validate = core.Validation{}
			s0 := time.Now()
			ser, err := core.RunProblem(ctx, sys, it.pt, it.prec, cfg)
			if err != nil {
				return nil, err
			}
			tr.record("core.sweep", req, s0, time.Now())
			samples += len(ser.Samples)
			lastSeries = append(lastSeries, ser)
			replayValidation(tr, req, it, ser, &tally)
		}
		tr.end(root, time.Now())
		tr.on.Store(false)
		traced = append(traced, time.Since(t0).Seconds())
	}
	after := readRuntime()
	spans := tr.take()
	ref, err := referenceDigest(ctx, sys, items)
	if err != nil {
		return nil, err
	}
	for _, r := range passes {
		checkPass(out, r, ref)
	}
	for i := 0; i < tally.bad; i++ {
		out.fail("replayed validation: checksum mismatch")
	}
	out.attempted += tally.validated

	// The timing models run inside core.sweep; time them alone on one
	// pass's samples (median of five) to split sim from core.
	var simTimes []float64
	var simCalls int
	for i := 0; i < 5; i++ {
		d, n, err := simProbe(sys, items, lastSeries)
		if err != nil {
			return nil, err
		}
		simTimes = append(simTimes, d.Seconds())
		simCalls = n
	}
	simS := median(simTimes)

	n := float64(len(traced))
	lt := selfTimes(spans)
	perPass := func(name string) float64 { return lt.self[name].Seconds() / n }
	m := out.metrics
	m["blas.opt_gemm_s"], m["blas.ref_gemm_s"] = perPass("blas.opt_gemm"), perPass("blas.ref_gemm")
	m["blas.opt_gemv_s"], m["blas.ref_gemv_s"] = perPass("blas.opt_gemv"), perPass("blas.ref_gemv")
	m["blas.opt_gemm_gflops"] = ratio(tally.gemmFlops, lt.self["blas.opt_gemm"].Seconds()) / 1e9
	m["blas.ref_gemm_gflops"] = ratio(tally.gemmFlops, lt.self["blas.ref_gemm"].Seconds()) / 1e9
	m["blas.opt_gemv_gbps"] = ratio(tally.gemvBytes, lt.self["blas.opt_gemv"].Seconds()) / 1e9
	m["blas.calls"] = float64(tally.calls) / n
	m["matrix.fill_s"], m["matrix.checksum_s"] = perPass("matrix.fill"), perPass("matrix.checksum")
	m["matrix.operand_mb"] = tally.operandBytes / n / (1 << 20)
	m["core.samples"] = float64(samples) / n
	m["core.validated"] = float64(tally.validated) / n
	m["core.checksum_failures"] = float64(tally.bad)
	m["core.sweep_novalidate_s"] = perPass("core.sweep")
	m["sim.model_calls"] = float64(simCalls)
	m["sim.model_s"] = simS
	m["sim.ns_per_call.roofline"] = ratio(simS*1e9, float64(simCalls))
	runtimeMetrics(m, before, after, len(traced)+len(untraced))

	self := map[string]float64{}
	for name, d := range lt.self {
		self[layerOf(name)] += d.Seconds() * 1e3 / n
	}
	// core.sweep's self time includes the models it calls.
	simMs := simS * 1e3
	if simMs > self["core"] {
		simMs = self["core"]
	}
	self["core"] -= simMs
	self["sim"] += simMs
	attribute(out, self, 1e3*mean(untraced), median(traced), median(untraced), len(spans))
	if path, err := writeSpans(fmt.Sprintf("paper-sweep-seed%d", p.seed), spans); err != nil {
		return nil, err
	} else if path != "" {
		out.report["spans_file"] = path
	}
	out.report["system"] = sys.Name
	out.report["passes_traced"], out.report["passes_untraced"] = len(traced), len(untraced)
	return out, nil
}

// zeroLayers sets every per-layer metric to 0 before a traced workload
// fills in the layers it exercises.
func zeroLayers(out *outcome) {
	for _, d := range perLayer {
		out.metrics[d.name] = 0
	}
}

// attribute reports each layer's self time per operation, checks that
// they add up to the untraced end-to-end time of the same operation
// (untracedMs) within attributionTol, and reports the tracing overhead
// from the traced and untraced figures of the same statistic.
func attribute(out *outcome, self map[string]float64, untracedMs, tracedFig, untracedFig float64, spans int) {
	total := 0.0
	for _, l := range layers {
		out.metrics["self_ms."+l] = self[l]
		total += self[l]
	}
	r := ratio(total, untracedMs)
	out.metrics["attribution.ratio"] = r
	ok := r >= 1-attributionTol && r <= 1+attributionTol
	out.metrics["attribution.ok"] = 0
	if ok {
		out.metrics["attribution.ok"] = 1
	}
	out.metrics["trace.overhead_pct"] = 100 * ratio(tracedFig-untracedFig, untracedFig)
	out.metrics["trace.spans"] = float64(spans)
	out.report["attribution"] = map[string]any{
		"layers_ms": total, "untraced_ms": untracedMs, "ratio": r, "tolerance": attributionTol, "ok": ok,
	}
}
