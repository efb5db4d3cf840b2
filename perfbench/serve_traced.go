package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// modelCallsPerSample is how many timing-model evaluations core.RunProblem
// makes per problem size: one CPU and one GPU per transfer strategy.
const modelCallsPerSample = 1 + core.NumStrategies

// counters are the service metrics the traced run reads from each
// replica's /metrics, summed over replicas.
type counters struct{ hits, misses, sweeps, shed float64 }

func (c counters) minus(o counters) counters {
	return counters{c.hits - o.hits, c.misses - o.misses, c.sweeps - o.sweeps, c.shed - o.shed}
}

func (c counters) plus(o counters) counters {
	return counters{c.hits + o.hits, c.misses + o.misses, c.sweeps + o.sweeps, c.shed + o.shed}
}

// scrape reads the Prometheus text of every replica with a plain client,
// so the reads are neither traced nor counted as requests.
func (e *serveEnv) scrape(ctx context.Context) (counters, error) {
	var c counters
	for _, base := range e.metrics {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return c, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return c, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			switch {
			case name == "blob_cache_hits_total":
				c.hits += v
			case name == "blob_cache_misses_total":
				c.misses += v
			case name == `blob_sweeps_total{result="started"}`:
				c.sweeps += v
			case strings.HasPrefix(name, "blob_shed_total{"):
				c.shed += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return c, fmt.Errorf("reading %s/metrics: %w", base, err)
		}
	}
	return c, nil
}

// runServeTraced alternates untraced and traced open-loop phases at the
// high rate on one set-up whose handlers and hooks are wrapped, then
// splits the traced requests' latency across the layers they crossed.
func runServeTraced(ctx context.Context, spec serveSpec, p params) (*outcome, error) {
	out := newOutcome()
	zeroLayers(out)
	tr := newTracer()
	env, _, err := setUp(ctx, spec, out, tr)
	if err != nil {
		return nil, err
	}
	defer env.close()

	var uLat, tLat, late []float64
	var cnt counters
	var rt rtStats
	var retries int64
	reqs := 0
	const segs = 4
	q := p.dur / (2 * segs)
	for i := uint64(0); i < segs; i++ {
		u := env.phaseAt(ctx, spec.high, q, firstLow+i*stream/segs)
		uLat = append(uLat, u.lat...)

		c0, err := env.scrape(ctx)
		if err != nil {
			return nil, err
		}
		r0, a0, s0 := readRuntime(), env.attempts.Load(), env.sends.Load()
		tr.on.Store(true)
		t := env.phaseAt(ctx, spec.high, q, firstTraced+i*stream/segs)
		tr.on.Store(false)
		r1, a1, s1 := readRuntime(), env.attempts.Load(), env.sends.Load()
		c1, err := env.scrape(ctx)
		if err != nil {
			return nil, err
		}
		cnt = cnt.plus(c1.minus(c0))
		rt.allocBytes += r1.allocBytes - r0.allocBytes
		rt.gcCycles += r1.gcCycles - r0.gcCycles
		rt.pauseNs += r1.pauseNs - r0.pauseNs
		retries += (a1 - a0) - (s1 - s0)
		tLat = append(tLat, t.lat...)
		late = append(late, t.late...)
		reqs += t.Sent
	}
	spans := tr.take()
	if l := quantile(late, 0.99); l > maxLateMs {
		out.fail("generator fell behind its schedule at %.0f rps: late p99 %.2f ms > %.0f ms", spec.high, l, maxLateMs)
	}
	if err := env.verifyThresholds(ctx); err != nil {
		return nil, err
	}

	m := out.metrics
	env.mu.Lock()
	defer env.mu.Unlock()

	// Per-request spans: self time by layer, and the per-span figures.
	var reqSpans []span
	var evalTime time.Duration
	for _, s := range spans {
		if s.Req == 0 {
			evalTime += s.dur()
			continue
		}
		reqSpans = append(reqSpans, s)
	}
	lt := selfTimes(reqSpans)
	n := float64(lt.count["request"])
	self := map[string]float64{}
	for name, d := range lt.self {
		self[layerOf(name)] += ms(d) / n
	}
	handler := map[string][]float64{}
	for _, s := range reqSpans {
		if s.Name == "service.handler" {
			if c := env.class[s.Req]; c != "" {
				handler[c] = append(handler[c], ms(s.dur()))
			}
		}
	}
	for _, c := range []string{"dispatch", "threshold_hit", "threshold_miss", "advise"} {
		if len(handler[c]) > 0 {
			m["service.handler_ms."+c] = median(handler[c])
		}
	}

	// Sweeps: the models' share, from replaying kept sweeps through the
	// models alone.
	var simMs, sweepTime float64
	samples, sweeps := 0, 0
	for model, st := range env.sweeps {
		var per []float64
		for _, k := range st.kept {
			d, calls, err := simProbe(k.sys, []sweepItem{k.item}, []*core.Series{k.ser})
			if err != nil {
				return nil, err
			}
			per = append(per, float64(d.Nanoseconds())/float64(calls))
		}
		ns := median(per)
		name := "sim.ns_per_call." + model.String()
		m[name] = ns
		simMs += ns * float64(modelCallsPerSample*st.samples) / 1e6
		sweepTime += st.time.Seconds()
		samples += st.samples
		sweeps += st.n
	}
	simShare := simMs / n
	if simShare > self["core"] {
		simShare = self["core"]
	}
	self["core"] -= simShare
	self["sim"] += simShare
	attribute(out, self, mean(uLat), median(tLat), median(uLat), len(spans))

	m["core.samples"] = float64(samples)
	m["core.sweep_novalidate_s"] = ratio(sweepTime, float64(sweeps))
	m["sim.model_calls"] = float64(modelCallsPerSample*samples + 2*env.evals)
	m["sim.model_s"] = simMs/1e3 + evalTime.Seconds()
	m["offload.decisions"] = float64(env.decisions)
	m["offload.hit_ratio"] = ratio(float64(env.decisionHits), float64(env.decisions))
	m["offload.evaluations"] = float64(env.evals)
	m["offload.evaluate_s"] = evalTime.Seconds()
	m["service.cache_hit_ratio"] = ratio(cnt.hits, cnt.hits+cnt.misses)
	m["service.dedup_ratio"] = ratio(float64(env.thrDedup), float64(env.thrMiss))
	m["service.sweeps"] = cnt.sweeps
	m["service.sweep_s"] = ratio(sweepTime, float64(sweeps))
	m["service.shed_ratio"] = ratio(cnt.shed, cnt.hits+cnt.misses)
	m["http.overhead_ms"] = median(lt.selfs["http.roundtrip"])
	m["blobclient.retries"] = float64(retries)
	if len(lt.durs["cluster.gateway"]) > 0 {
		m["cluster.gateway_ms"] = median(lt.durs["cluster.gateway"])
		m["cluster.hop_ms"] = median(lt.selfs["cluster.gateway"])
		total, most := 0, 0
		for _, c := range env.peers {
			total += c
			if c > most {
				most = c
			}
		}
		m["cluster.owner_skew"] = ratio(float64(most), float64(total)/replicas)
	}
	runtimeMetrics(m, rtStats{}, rt, reqs)
	m["loadgen.late_ms"] = quantile(late, 0.99)

	if path, err := writeSpans(fmt.Sprintf("%s-seed%d", spec.name, p.seed), spans); err != nil {
		return nil, err
	} else if path != "" {
		out.report["spans_file"] = path
	}
	out.report["traced_requests"] = reqs
	out.report["threshold_hits"], out.report["threshold_misses"] = env.thrHits, env.thrMiss
	return out, nil
}
