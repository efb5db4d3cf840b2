package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/service"
)

// advisor-serve: one service.Server with default options, the path an
// auto-offload runtime takes into the advisor.
const (
	// dispatchShapes is each system's shape set: small enough that all
	// three fit the dispatcher's default 8192-entry cache once warmed.
	dispatchShapes = 2048
	dispatchBatch  = 64
	hotThresholds  = 32
)

func advisorServe(ctx context.Context, p params) (*outcome, error) {
	shapes := make([][]payload, len(systemNames))
	for s := range shapes {
		r := newRNG(p.seed, 2, uint64(s))
		for i := 0; i < dispatchShapes; i++ {
			shapes[s] = append(shapes[s], advisePayload(r, 1))
		}
	}
	hr := newRNG(p.seed, 3, 0)
	var hot []payload
	seen := map[string]bool{}
	for len(hot) < hotThresholds {
		q := randomThreshold(hr, []int{1024, 2048, 4096})
		if k := thresholdKey(q); !seen[k] {
			seen[k] = true
			hot = append(hot, thresholdPayload(q))
		}
	}
	shapeZipf, hotZipf := newZipf(dispatchShapes, 1.1), newZipf(hotThresholds, 1.1)
	batch := func(s int, pick func(i int) int) payload {
		pl := payload{kind: kindDispatch, dispatch: &service.DispatchRequest{System: systemNames[s]}}
		for i := 0; i < dispatchBatch; i++ {
			sh := shapes[s][pick(i)]
			pl.dispatch.Calls = append(pl.dispatch.Calls, service.DispatchCallRequest{CallRequest: sh.advise.Calls[0]})
			pl.calls = append(pl.calls, sh.calls[0])
		}
		return pl
	}
	spec := serveSpec{
		name: "advisor-serve", low: 200, high: 500, limitMs: 25,
		start: func(e *serveEnv) (string, error) {
			svc := service.New(e.serviceOptions())
			var h http.Handler = svc.Handler()
			if e.tr != nil {
				h = spanHandler(e.tr, "service.handler", h)
			}
			ts := httptest.NewServer(h)
			e.closers = append(e.closers, svc.Close, ts.Close)
			e.metrics = []string{ts.URL}
			return ts.URL, nil
		},
		warm: func(ctx context.Context, e *serveEnv) error {
			var ps []payload
			for s := range shapes {
				for b := 0; b < dispatchShapes/dispatchBatch; b++ {
					ps = append(ps, batch(s, func(i int) int { return b*dispatchBatch + i }))
				}
			}
			ps = append(ps, hot...)
			e.closedLoop(ctx, firstWarm+stream/2, ps)
			return nil
		},
		gen: func(idx uint64) payload {
			r := newRNG(p.seed, 4, idx)
			switch u := r.float(); {
			case u < 0.80:
				s := r.intn(len(systemNames))
				return batch(s, func(int) int { return shapeZipf.draw(r) })
			case u < 0.95:
				return hot[hotZipf.draw(r)]
			default:
				return advisePayload(r, 4)
			}
		},
	}
	return runServe(ctx, spec, p)
}

// cluster-churn: a cluster.Gateway over three in-process replicas, all
// with default options, under threshold traffic whose key space outgrows
// the replicas' combined cache.
const (
	replicas = 3
	// churnWarmKeys is how many of the most popular keys set-up requests
	// once each: fewer than the 3 x 256 entries the replicas cache.
	churnWarmKeys = 600
)

// churnMaxDims is the max_dim axis of the cluster-churn key space. With
// 3 systems x 14 problems x 2 precisions x 2 models it gives 2016 keys,
// and a Zipf(0.9) draw over them misses the replicas' LRU caches on
// about a fifth of requests in steady state.
var churnMaxDims = []int{256, 384, 512, 640, 768, 1024, 1280, 1536, 2048, 2560, 3072, 4096}

func clusterChurn(ctx context.Context, p params) (*outcome, error) {
	space := thresholdSpace(p.seed, churnMaxDims)
	spaceZipf := newZipf(len(space), 0.9)
	spec := serveSpec{
		name: "cluster-churn", low: 200, high: 500, limitMs: 25,
		start: func(e *serveEnv) (string, error) { return startCluster(e) },
		warm: func(ctx context.Context, e *serveEnv) error {
			ps := make([]payload, churnWarmKeys)
			for i := range ps {
				ps[i] = thresholdPayload(space[i])
			}
			e.closedLoop(ctx, firstWarm+stream/2, ps)
			return nil
		},
		gen: func(idx uint64) payload {
			r := newRNG(p.seed, 5, idx)
			if r.float() < 0.95 {
				return thresholdPayload(space[spaceZipf.draw(r)])
			}
			return advisePayload(r, 4)
		},
	}
	return runServe(ctx, spec, p)
}

// startCluster starts three replicas (service + cluster pool behind a
// cluster.Node, peer fill wired as blob-served does) and a gateway over
// them, each on its own loopback listener.
func startCluster(e *serveEnv) (string, error) {
	slots := make([]atomic.Value, replicas)
	members := make([]cluster.Member, replicas)
	for i := range members {
		slot := &slots[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			slot.Load().(http.Handler).ServeHTTP(w, r)
		}))
		e.closers = append(e.closers, ts.Close)
		members[i] = cluster.Member{Name: fmt.Sprintf("rep-%d", i), URL: ts.URL}
		e.metrics = append(e.metrics, ts.URL)
	}
	for i := range members {
		pool, err := cluster.NewPool(cluster.Options{Self: members[i].Name, Members: members})
		if err != nil {
			return "", err
		}
		opts := e.serviceOptions()
		opts.PeerFill = pool.FillThreshold()
		node := cluster.NewNode(pool, service.New(opts))
		e.closers = append(e.closers, node.Close)
		var h http.Handler = node.Handler()
		if e.tr != nil {
			h = spanHandler(e.tr, "service.handler", h)
		}
		slots[i].Store(h)
	}
	gwPool, err := cluster.NewGatewayPool(cluster.Options{Members: members})
	if err != nil {
		return "", err
	}
	e.closers = append(e.closers, gwPool.Close)
	var h http.Handler = cluster.NewGateway(gwPool, cluster.GatewayOptions{}).Handler()
	if e.tr != nil {
		h = spanHandler(e.tr, "cluster.gateway", h)
	}
	gw := httptest.NewServer(h)
	e.closers = append(e.closers, gw.Close)
	return gw.URL, nil
}
