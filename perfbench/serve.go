package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/offload"
	"repro/internal/service"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
	"repro/pkg/blobclient"
)

type reqKind int

const (
	kindDispatch reqKind = iota
	kindThreshold
	kindAdvise
)

// payload is one generated request with what its checks need.
type payload struct {
	kind      reqKind
	dispatch  *service.DispatchRequest
	threshold *service.ThresholdRequest
	advise    *service.AdviseRequest
	// calls are the typed forms of the dispatch or advise calls.
	calls []advisor.Call
	// sweepKey is the typed identity of a threshold request, as the
	// sweep hook sees it.
	sweepKey string
}

// serveSpec is one serving workload: its traffic, rates and server set-up.
type serveSpec struct {
	name string
	// low and high are the two fixed offered rates (requests/s), about
	// 20% and 50% of what the program sustains on a two-vCPU host with
	// one effective core.
	low, high float64
	// limitMs is the p90 latency limit of the slo_rps search: ten times
	// the p90 at the high rate, where latency climbs steeply towards
	// capacity, so small swings in p90 move the rate found little.
	limitMs float64
	// start brings the servers up and returns the base URL clients use.
	start func(e *serveEnv) (string, error)
	// warm fills the program's caches before the warm-up pass.
	warm func(ctx context.Context, e *serveEnv) error
	// gen builds request idx.
	gen func(idx uint64) payload
}

const (
	stream = uint64(1) << 32
	// Request index ranges of the run's phases, so every phase draws
	// its own inputs from the seed.
	firstLow    = 0 * stream
	firstHigh   = 1 * stream
	firstSearch = 2 * stream
	firstCold   = 3 * stream
	firstWarm   = 4 * stream
	firstTraced = 5 * stream
	// warmPass is the number of mixed requests in set-up's discarded
	// warm-up pass; coldSweeps the number of cold threshold requests
	// whose lower quartile is sweep_s on the serving workloads.
	warmPass   = 400
	coldSweeps = 60
	// rateSegments is how many segments each fixed rate is split into.
	rateSegments = 15
)

type reqIDKey struct{}

// serveEnv is one running server set-up plus the client that drives it
// and what the checks and the tracer collect.
type serveEnv struct {
	spec    serveSpec
	tr      *tracer
	client  *blobclient.Client
	hc      *http.Client
	metrics []string // base URLs whose /metrics the traced run reads
	closers []func()
	sysByNm map[string]systems.System

	strict   atomic.Bool // transport errors and sheds count as failures
	attempts atomic.Int64
	sends    atomic.Int64
	pending  sync.Map // sweep key -> request id of the latest sender

	mu      sync.Mutex
	out     *outcome
	answers map[string]map[string]int // threshold key -> rendered answer -> count
	queries map[string]service.ThresholdRequest
	// Traced-phase tallies.
	class                      map[uint64]string
	peers                      map[string]int
	thrHits, thrMiss, thrDedup int
	decisions, decisionHits    int
	sweeps                     map[core.ModelKind]*sweepTally
	evals                      int
	evalTime                   time.Duration
}

type sweepTally struct {
	n, samples int
	time       time.Duration
	// kept are a few of the sweeps, replayed through the models alone
	// to split their time between core and sim.
	kept []keptSweep
}

type keptSweep struct {
	sys  systems.System
	item sweepItem
	ser  *core.Series
}

func newServeEnv(spec serveSpec, out *outcome, tr *tracer) (*serveEnv, error) {
	e := &serveEnv{
		spec: spec, tr: tr, out: out,
		sysByNm: map[string]systems.System{},
		answers: map[string]map[string]int{},
		queries: map[string]service.ThresholdRequest{},
		class:   map[uint64]string{},
		peers:   map[string]int{},
		sweeps:  map[core.ModelKind]*sweepTally{},
	}
	for _, s := range systems.All() {
		e.sysByNm[s.Name] = s
	}
	e.strict.Store(true)
	base, err := spec.start(e)
	if err != nil {
		e.close()
		return nil, err
	}
	e.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &idTransport{env: e, base: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, IdleConnTimeout: time.Minute,
		}},
	}
	e.client = blobclient.New(blobclient.Options{BaseURL: base, HTTPClient: e.hc})
	return e, nil
}

func (e *serveEnv) close() {
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// idTransport stamps each request's ID into X-API-Key, which the gateway
// forwards to the replica (the fair-share layer that reads it is off by
// default), and times the HTTP exchange up to the end of the body.
type idTransport struct {
	env  *serveEnv
	base http.RoundTripper
}

func (t *idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, _ := r.Context().Value(reqIDKey{}).(uint64)
	r = r.Clone(r.Context())
	r.Header.Set("X-API-Key", "pb-"+strconv.FormatUint(id, 10))
	t.env.attempts.Add(1)
	sp := t.env.tr.begin("http.roundtrip", id, time.Now())
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.env.tr.end(sp, time.Now())
		return nil, err
	}
	if t.env.tr.enabled() {
		if peer := resp.Header.Get("X-Blob-Peer"); peer != "" {
			t.env.mu.Lock()
			t.env.peers[peer]++
			t.env.mu.Unlock()
		}
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.env.tr, id: sp}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport when a set-up is torn down.
func (t *idTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// spanBody ends the round-trip span when the body is read to its end or
// closed, whichever comes first.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	id   int
	once sync.Once
}

func (b *spanBody) finish() { b.once.Do(func() { b.tr.end(b.id, time.Now()) }) }

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// spanHandler times a server-side handler as a span of the request whose
// ID the client stamped into X-API-Key.
func spanHandler(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(strings.TrimPrefix(r.Header.Get("X-API-Key"), "pb-"), 10, 64)
		sp := tr.begin(name, id, time.Now())
		h.ServeHTTP(w, r)
		tr.end(sp, time.Now())
	})
}

// serviceOptions are the default service options; a traced run adds the
// two hooks the service exposes, wrapped around the default functions.
func (e *serveEnv) serviceOptions() service.Options {
	if e.tr == nil {
		return service.Options{}
	}
	return service.Options{Sweep: e.sweepHook, DispatchEvaluate: e.evaluateHook}
}

func sweepKeyOf(sys string, kernel core.KernelKind, problem string, prec core.Precision, model core.ModelKind, maxDim, iters int) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d", sys, kernel, problem, prec, model, maxDim, iters)
}

// sweepHook is core.Run timed as one span under the request that asked
// for it (the leader, when singleflight shares a sweep).
func (e *serveEnv) sweepHook(ctx context.Context, sys systems.System, problems []core.ProblemType, precs []core.Precision, cfg core.Config) ([]*core.Series, error) {
	t0 := time.Now()
	ser, err := core.Run(ctx, sys, problems, precs, cfg)
	t1 := time.Now()
	if !e.tr.enabled() || err != nil || len(ser) != 1 {
		return ser, err
	}
	key := sweepKeyOf(sys.Name, problems[0].Kernel, problems[0].Name, precs[0], cfg.Model, cfg.MaxDim, cfg.Iterations)
	req, _ := e.pending.Load(key)
	id, _ := req.(uint64)
	e.tr.record("core.sweep", id, t0, t1)
	e.mu.Lock()
	st := e.sweeps[cfg.Model]
	if st == nil {
		st = &sweepTally{}
		e.sweeps[cfg.Model] = st
	}
	st.n++
	st.samples += len(ser[0].Samples)
	st.time += t1.Sub(t0)
	if len(st.kept) < 16 {
		st.kept = append(st.kept, keptSweep{sys: sys, item: sweepItem{pt: problems[0], prec: precs[0], cfg: cfg}, ser: ser[0]})
	}
	e.mu.Unlock()
	return ser, err
}

// evaluateHook is advisor.Times, the dispatcher's default evaluation,
// timed. It runs inside a dispatch handler with no request context, so
// its spans carry no request and are reported on their own.
func (e *serveEnv) evaluateHook(sys systems.System, c advisor.Call) (float64, float64) {
	if !e.tr.enabled() {
		return advisor.Times(sys, c)
	}
	t0 := time.Now()
	cpu, gpu := advisor.Times(sys, c)
	t1 := time.Now()
	e.tr.record("offload.evaluate", 0, t0, t1)
	e.mu.Lock()
	e.evals++
	e.evalTime += t1.Sub(t0)
	e.mu.Unlock()
	return cpu, gpu
}

// send performs one request through blobclient and checks the answer.
func (e *serveEnv) send(ctx context.Context, idx uint64, due time.Time, p payload) (time.Time, bool) {
	id := idx + 1
	tr := e.tr
	root := tr.begin("request", id, due)
	now := time.Now()
	tr.record("loadgen.queue", id, due, now)
	cctx := context.WithValue(ctx, reqIDKey{}, id)
	call := tr.begin("blobclient.call", id, now)
	e.sends.Add(1)
	var (
		err   error
		dResp *service.DispatchResponse
		tResp *service.ThresholdResponse
		aResp *service.AdviseResponse
	)
	switch p.kind {
	case kindDispatch:
		dResp, err = e.client.DispatchBatch(cctx, *p.dispatch)
	case kindThreshold:
		if tr.enabled() {
			e.pending.Store(p.sweepKey, id)
		}
		tResp, err = e.client.Threshold(cctx, *p.threshold)
	case kindAdvise:
		aResp, err = e.client.Advise(cctx, *p.advise)
	}
	done := time.Now()
	tr.end(call, done)
	tr.end(root, done)

	wrong := ""
	switch {
	case err != nil:
	case p.kind == kindDispatch:
		wrong = checkDispatch(e.sysByNm, p, dResp)
	case p.kind == kindAdvise:
		wrong = checkAdvise(e.sysByNm, p, aResp)
	}
	traced := tr.enabled()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.out.attempted++
	switch {
	case err != nil && e.strict.Load():
		e.out.fail("request %d: %v", id, err)
	case wrong != "":
		e.out.fail("request %d: %s", id, wrong)
	}
	if err == nil && p.kind == kindThreshold {
		key := thresholdKey(*p.threshold)
		if e.answers[key] == nil {
			e.answers[key] = map[string]int{}
			e.queries[key] = *p.threshold
		}
		e.answers[key][renderThresholds(tResp)]++
	}
	if traced && err == nil {
		switch p.kind {
		case kindDispatch:
			e.class[id] = "dispatch"
			e.decisions += len(dResp.Decisions)
			e.decisionHits += dResp.CacheHits
		case kindAdvise:
			e.class[id] = "advise"
		case kindThreshold:
			if tResp.Cached {
				e.class[id] = "threshold_hit"
				e.thrHits++
			} else {
				e.class[id] = "threshold_miss"
				e.thrMiss++
				if tResp.Deduplicated {
					e.thrDedup++
				}
			}
		}
	}
	return done, err != nil || wrong != ""
}

// checkDispatch compares every decision's modeled times with
// advisor.Times and its device with the raw comparison, which it must
// follow unless hysteresis held the incumbent.
func checkDispatch(sysByNm map[string]systems.System, p payload, resp *service.DispatchResponse) string {
	sys := sysByNm[resp.System]
	if sys.Name == "" || len(resp.Decisions) != len(p.calls) {
		return fmt.Sprintf("dispatch answer for %q has %d decisions, want %d", resp.System, len(resp.Decisions), len(p.calls))
	}
	for j, d := range resp.Decisions {
		cpu, gpu := advisor.Times(sys, p.calls[j])
		raw := offload.CPU.String()
		if gpu < cpu {
			raw = offload.GPU.String()
		}
		if d.CPUSeconds != cpu || d.GPUSeconds != gpu {
			return fmt.Sprintf("decision %d: times %g/%g, advisor.Times gives %g/%g", j, d.CPUSeconds, d.GPUSeconds, cpu, gpu)
		}
		if (d.Device == raw) == d.Held {
			return fmt.Sprintf("decision %d: device %s held=%v, raw comparison says %s", j, d.Device, d.Held, raw)
		}
	}
	return ""
}

// checkAdvise compares every verdict with advisor.Advise.
func checkAdvise(sysByNm map[string]systems.System, p payload, resp *service.AdviseResponse) string {
	per := len(sysByNm)
	if len(resp.Verdicts) != len(p.calls)*per {
		return fmt.Sprintf("advise answer has %d verdicts, want %d", len(resp.Verdicts), len(p.calls)*per)
	}
	for i, v := range resp.Verdicts {
		want, err := advisor.Advise(sysByNm[v.System], p.calls[i/per])
		if err != nil {
			return fmt.Sprintf("verdict %d: %v", i, err)
		}
		if v.CPUSeconds != want.CPUSeconds || v.GPUSeconds != want.GPUSeconds || v.Offload != want.Offload {
			return fmt.Sprintf("verdict %d on %s differs from advisor.Advise", i, v.System)
		}
	}
	return ""
}

// verifyThresholds checks every threshold answer of the run against
// referenceThresholds, computed after the measured phases.
func (e *serveEnv) verifyThresholds(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, got := range e.answers {
		want, err := referenceThresholds(ctx, e.queries[key])
		if err != nil {
			return err
		}
		for ans, n := range got {
			if ans != want {
				for i := 0; i < n; i++ {
					e.out.fail("threshold %s: got %s, reference %s", key, ans, want)
				}
			}
		}
	}
	return nil
}

// toCalls types wire calls, as the service's request decoding does.
func toCalls(wire []service.CallRequest) ([]advisor.Call, error) {
	out := make([]advisor.Call, len(wire))
	for i, w := range wire {
		k, err := core.ParseKernelKind(w.Kernel)
		if err != nil {
			return nil, err
		}
		p, err := core.ParsePrecision(w.Precision)
		if err != nil {
			return nil, err
		}
		s, err := xfer.ParseStrategy(w.Movement)
		if err != nil {
			return nil, err
		}
		out[i] = advisor.Call{Kernel: k, M: w.M, N: w.N, K: w.K, Precision: p, Count: w.Count, Strategy: s}
		if err := out[i].Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func thresholdPayload(q service.ThresholdRequest) payload {
	sys, _ := systems.ByName(q.System)
	kernel, _ := core.ParseKernelKind(q.Kernel)
	prec, _ := core.ParsePrecision(q.Precision)
	model, _ := core.ParseModelKind(q.Model)
	maxDim, iters := q.Config.MaxDim, q.Config.Iterations
	if maxDim == 0 {
		maxDim = 4096
	}
	if iters == 0 {
		iters = 8
	}
	return payload{kind: kindThreshold, threshold: &q, sweepKey: sweepKeyOf(sys.Name, kernel, q.Problem, prec, model, maxDim, iters)}
}

func advisePayload(r *srng, n int) payload {
	wire := make([]service.CallRequest, n)
	for i := range wire {
		wire[i] = randomCall(r)
	}
	calls, err := toCalls(wire)
	if err != nil {
		panic(err) // randomCall only draws valid calls
	}
	return payload{kind: kindAdvise, advise: &service.AdviseRequest{Calls: wire}, calls: calls}
}

// coldPayload is cold request i: a full square GEMM sweep at the service's
// maximum d with an iteration count no other request uses, so it always
// misses every cache.
func coldPayload(seed int64, i int) payload {
	return thresholdPayload(service.ThresholdRequest{
		System: systemNames[i%len(systemNames)], Kernel: "gemm", Problem: "square", Precision: "f64",
		Config: service.SweepConfigRequest{MaxDim: 4096, Iterations: 1000 + int(uint64(seed)%1000)*coldSweeps + i},
	})
}

// prepare builds requests first..first+n-1 ahead of a phase, so request
// generation is not timed.
func (e *serveEnv) prepare(first uint64, n int) []payload {
	ps := make([]payload, n)
	for i := range ps {
		ps[i] = e.spec.gen(first + uint64(i))
	}
	return ps
}

// phaseAt runs one open-loop phase at rate for dur.
func (e *serveEnv) phaseAt(ctx context.Context, rate float64, dur time.Duration, first uint64) phase {
	ps := e.prepare(first, int(rate*dur.Seconds())+1)
	return openLoop(ctx, rate, dur, first, func(ctx context.Context, idx uint64, due time.Time) (time.Time, bool) {
		return e.send(ctx, idx, due, ps[idx-first])
	})
}

// closedLoop sends the given requests back to back from the client
// goroutines, as fast as answers come.
func (e *serveEnv) closedLoop(ctx context.Context, first uint64, ps []payload) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ps)) || ctx.Err() != nil {
					return
				}
				e.send(ctx, first+uint64(i), time.Now(), ps[i])
			}
		}()
	}
	wg.Wait()
}

// setUp brings a fresh server set-up up, fills its caches and runs the
// discarded warm-up pass: everything before the measured phase.
func setUp(ctx context.Context, spec serveSpec, out *outcome, tr *tracer) (*serveEnv, time.Duration, error) {
	t0 := time.Now()
	e, err := newServeEnv(spec, out, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := spec.warm(ctx, e); err != nil {
		e.close()
		return nil, 0, err
	}
	e.closedLoop(ctx, firstWarm, e.prepare(firstWarm, warmPass))
	return e, time.Since(t0), nil
}

// runServe is the untraced run of a serving workload: set-up repeated,
// then, against the last set-up, the open loop at the low and the high
// rate, the cold sweeps and the slo_rps search, interleaved.
func runServe(ctx context.Context, spec serveSpec, p params) (*outcome, error) {
	if p.traced {
		return runServeTraced(ctx, spec, p)
	}
	out := newOutcome()
	var env *serveEnv
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if env != nil {
			env.close()
		}
		e, d, err := setUp(ctx, spec, out, nil)
		if err != nil {
			return nil, err
		}
		env = e
		setups = append(setups, d.Seconds())
	}
	defer env.close()
	heap := newHeapWatch()
	defer heap.Stop()

	// The run is a row of blocks: a low-rate segment, a high-rate
	// segment, a few cold sweeps and two probes of the slo_rps search, so
	// slow spells of the host fall on every metric alike. The search may
	// push the program past its capacity: its transport errors and sheds
	// are misses, not failures, but wrong answers still fail the run.
	var lows, highs []phase
	var peaks, cold []float64
	seg := p.dur / 2 / (2 * rateSegments)
	search := newLadder(spec.high, spec.limitMs, p.dur*9/20, firstSearch, func(ctx context.Context, idx uint64, due time.Time) (time.Time, bool) {
		return env.send(ctx, idx, due, spec.gen(idx))
	})
	heap.Segment()
	for i := uint64(0); i < rateSegments; i++ {
		lows = append(lows, env.phaseAt(ctx, spec.low, seg, firstLow+i*stream/rateSegments))
		peaks = append(peaks, heap.Segment())
		highs = append(highs, env.phaseAt(ctx, spec.high, seg, firstHigh+i*stream/rateSegments))
		peaks = append(peaks, heap.Segment())
		for j := 0; j < coldSweeps/rateSegments; j++ {
			t0 := time.Now()
			done, _ := env.send(ctx, firstCold+uint64(len(cold)), t0, coldPayload(p.seed, len(cold)))
			cold = append(cold, done.Sub(t0).Seconds())
		}
		env.strict.Store(false)
		for j := 0; j < ladderProbes/rateSegments; j++ {
			search.step(ctx)
		}
		env.strict.Store(true)
		heap.Segment()
	}
	low, high := combine(lows), combine(highs)
	env.strict.Store(false)
	slo := search.rate(low, high)
	env.strict.Store(true)

	if err := env.verifyThresholds(ctx); err != nil {
		return nil, err
	}
	for _, ph := range []phase{low, high} {
		if !ph.Valid {
			out.fail("generator fell behind its schedule at %.0f rps: late p99 %.2f ms > %.1f ms", ph.Rate, ph.LateP99, maxLateMs)
		}
	}

	m := out.metrics
	m["setup_s"] = median(setups)
	m["sweep_s"] = quantile(cold, 0.25)
	m["peak_heap_mb"] = median(peaks)
	m["p50_ms.low"], m["p90_ms.low"] = low.P50, low.P90
	m["p50_ms.high"], m["p90_ms.high"] = high.P50, high.P90
	m["slo_rps"] = slo
	out.report["low"], out.report["high"], out.report["slo_probes"] = low, high, search.probes
	out.report["limit_ms"] = spec.limitMs
	out.report["setups_s"] = setups
	return out, nil
}
