package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// srng is a splitmix64 generator: cheap to create per request, so request
// i's inputs depend only on the seed and i, not on which client goroutine
// sends it or in what order.
type srng uint64

func newRNG(seed int64, stream, i uint64) *srng {
	r := srng(uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9 ^ i*0x94D049BB133111EB)
	r.next()
	return &r
}

func (r *srng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *srng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *srng) intn(n int) int { return int(r.next() % uint64(n)) }

// logInt draws an integer log-uniformly from [lo, hi].
func (r *srng) logInt(lo, hi int) int {
	v := math.Exp(math.Log(float64(lo)) + r.float()*(math.Log(float64(hi))-math.Log(float64(lo))))
	return int(math.Round(v))
}

func (r *srng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s,
// for any s > 0 (math/rand's Zipf needs s > 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	t := 0.0
	for k := 0; k < n; k++ {
		t += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = t
	}
	for k := range z.cdf {
		z.cdf[k] /= t
	}
	return z
}

func (z zipf) draw(r *srng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

var (
	systemNames = []string{"dawn", "lumi", "isambard-ai"}
	precisions  = []string{"f32", "f64"}
	movements   = []string{"once", "always", "usm"}
	models      = []string{"roofline", "blackbox"}
)

// randomCall draws one BLAS call shape: GEMM or GEMV, log-uniform sizes
// from 1 to 4096, either precision, any data movement.
func randomCall(r *srng) service.CallRequest {
	c := service.CallRequest{
		Kernel:    "gemm",
		M:         r.logInt(1, 4096),
		N:         r.logInt(1, 4096),
		K:         r.logInt(1, 4096),
		Precision: precisions[r.intn(2)],
		Count:     []int{1, 8, 64}[r.intn(3)],
		Movement:  movements[r.intn(3)],
	}
	if r.float() < 0.3 {
		c.Kernel, c.K = "gemv", 0
	}
	return c
}

// randomThreshold draws one threshold request from the whole problem
// registry: any system, problem type and precision, either timing model,
// and a max_dim from maxDims.
func randomThreshold(r *srng, maxDims []int) service.ThresholdRequest {
	problems := core.AllProblems()
	pt := problems[r.intn(len(problems))]
	return service.ThresholdRequest{
		System:    systemNames[r.intn(len(systemNames))],
		Kernel:    pt.Kernel.String(),
		Problem:   pt.Name,
		Precision: precisions[r.intn(2)],
		Model:     models[r.intn(2)],
		Config:    service.SweepConfigRequest{MaxDim: maxDims[r.intn(len(maxDims))]},
	}
}

// thresholdKey names a threshold request's identity: the fields that
// decide its answer.
func thresholdKey(q service.ThresholdRequest) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d", q.System, q.Kernel, q.Problem, q.Precision, q.Model, q.Config.MaxDim, q.Config.Iterations)
}

// thresholdSpace enumerates every distinct threshold request over
// systems x problem types x precisions x models x maxDims, in a seeded
// rank order: rank 0 is the most popular key under a Zipf draw. What a
// cold sweep costs depends on the problem type, the model and max_dim,
// so those form cost classes, and every run of consecutive ranks as long
// as the class count holds one key of each class: the seed decides which
// key of a class and which class comes first, but not the mix of costs
// that the misses in the Zipf tail draw.
func thresholdSpace(seed int64, maxDims []int) []service.ThresholdRequest {
	var classes [][]service.ThresholdRequest
	for _, pt := range core.AllProblems() {
		for _, model := range models {
			for _, d := range maxDims {
				var class []service.ThresholdRequest
				for _, sys := range systemNames {
					for _, prec := range precisions {
						class = append(class, service.ThresholdRequest{
							System: sys, Kernel: pt.Kernel.String(), Problem: pt.Name,
							Precision: prec, Model: model,
							Config: service.SweepConfigRequest{MaxDim: d},
						})
					}
				}
				classes = append(classes, class)
			}
		}
	}
	r := newRNG(seed, 7, 0)
	for _, class := range classes {
		for i := len(class) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			class[i], class[j] = class[j], class[i]
		}
	}
	order := r.perm(len(classes))
	var out []service.ThresholdRequest
	for m := 0; m < len(classes[0]); m++ {
		for _, c := range order {
			out = append(out, classes[c][m])
		}
	}
	return out
}

// referenceThresholds answers a threshold request by calling
// core.RunProblem directly, with the configuration the service documents
// for /v1/threshold (min 1, step 1, 8 iterations, alpha 1, beta 0, no
// validation), and renders the per-strategy verdicts canonically.
func referenceThresholds(ctx context.Context, q service.ThresholdRequest) (string, error) {
	sys, err := systems.ByName(q.System)
	if err != nil {
		return "", err
	}
	kernel, err := core.ParseKernelKind(q.Kernel)
	if err != nil {
		return "", err
	}
	pt, err := core.FindProblem(kernel, q.Problem)
	if err != nil {
		return "", err
	}
	prec, err := core.ParsePrecision(q.Precision)
	if err != nil {
		return "", err
	}
	model, err := core.ParseModelKind(q.Model)
	if err != nil {
		return "", err
	}
	cfg := core.Config{MinDim: 1, MaxDim: q.Config.MaxDim, Step: 1, Iterations: q.Config.Iterations, Alpha: 1, Mode: core.ModeBoth, Model: model}
	if cfg.MaxDim == 0 {
		cfg.MaxDim = 4096
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 8
	}
	ser, err := core.RunProblem(ctx, sys, pt, prec, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, st := range xfer.Strategies {
		th := ser.Thresholds[st]
		writeVerdict(&b, st, th.Found, th.Dims.M, th.Dims.N, th.Dims.K)
	}
	return b.String(), nil
}

// renderThresholds renders a /v1/threshold answer the way
// referenceThresholds renders the reference.
func renderThresholds(resp *service.ThresholdResponse) string {
	var b strings.Builder
	for _, st := range xfer.Strategies {
		th := resp.Thresholds[st.String()]
		writeVerdict(&b, st, th.Found, th.M, th.N, th.K)
	}
	return b.String()
}

func writeVerdict(b *strings.Builder, st xfer.Strategy, found bool, m, n, k int) {
	if !found {
		m, n, k = 0, 0, 0
	}
	fmt.Fprintf(b, "%s=%v:%d,%d,%d;", st, found, m, n, k)
}
