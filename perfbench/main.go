// Command perfbench is the repository's benchmark. One invocation runs one
// workload with a seed, checks every output, and prints every metric by
// name with its unit:
//
//	bash perfbench/run.sh --workload advisor-serve --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// report with the host block and per-phase details. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1 they
// are the per-layer ones from a run that also records spans. README.md in
// this directory records why each workload and metric was chosen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. What each means per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"p50_ms.low", "ms"},
	{"p90_ms.low", "ms"},
	{"p50_ms.high", "ms"},
	{"p90_ms.high", "ms"},
	{"slo_rps", "1/s"},
}

// layers are the repository's modules as the traced run splits time
// across them; self_ms.<layer> is each one's self time per operation.
var layers = []string{"loadgen", "blobclient", "http", "cluster", "service", "offload", "core", "sim", "matrix", "blas"}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0: that is the prediction "flat on this workload".
var perLayer = append([]metricDef{
	{"blas.ref_gemm_s", "s"},
	{"blas.opt_gemm_s", "s"},
	{"blas.ref_gemv_s", "s"},
	{"blas.opt_gemv_s", "s"},
	{"blas.opt_gemm_gflops", "GFLOP/s"},
	{"blas.ref_gemm_gflops", "GFLOP/s"},
	{"blas.opt_gemv_gbps", "GB/s"},
	{"blas.calls", "count"},
	{"matrix.fill_s", "s"},
	{"matrix.checksum_s", "s"},
	{"matrix.operand_mb", "MiB"},
	{"core.samples", "count"},
	{"core.validated", "count"},
	{"core.checksum_failures", "count"},
	{"core.sweep_novalidate_s", "s"},
	{"sim.model_calls", "count"},
	{"sim.model_s", "s"},
	{"sim.ns_per_call.roofline", "ns"},
	{"sim.ns_per_call.blackbox", "ns"},
	{"offload.decisions", "count"},
	{"offload.hit_ratio", "1"},
	{"offload.evaluations", "count"},
	{"offload.evaluate_s", "s"},
	{"service.handler_ms.dispatch", "ms"},
	{"service.handler_ms.threshold_hit", "ms"},
	{"service.handler_ms.threshold_miss", "ms"},
	{"service.handler_ms.advise", "ms"},
	{"service.cache_hit_ratio", "1"},
	{"service.dedup_ratio", "1"},
	{"service.sweeps", "count"},
	{"service.sweep_s", "s"},
	{"service.shed_ratio", "1"},
	{"http.overhead_ms", "ms"},
	{"blobclient.retries", "count"},
	{"cluster.gateway_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.owner_skew", "1"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"attribution.ratio", "1"},
	{"attribution.ok", "1"},
}, selfMetrics()...)

func selfMetrics() []metricDef {
	out := make([]metricDef, len(layers))
	for i, l := range layers {
		out[i] = metricDef{"self_ms." + l, "ms"}
	}
	return out
}

// attributionTol is how far the traced run's summed layer self times may
// differ from the untraced end-to-end time of the same operation, as a
// share of the untraced time, before the per-layer split is not trusted.
const attributionTol = 0.20

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, so work moved into set-up shows without one slow start
// deciding the figure.
const setupRepeats = 3

// params are one run's settings.
type params struct {
	seed   int64
	dur    time.Duration
	traced bool
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
}

// outcome is what a workload hands back for printing.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	metrics   map[string]float64
	report    map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, p params) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-sweep":   paperSweep,
	"advisor-serve": advisorServe,
	"cluster-churn": clusterChurn,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-sweep, advisor-serve or cluster-churn")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	host := probeHost()
	p := params{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, setups: setupRepeats}
	out, err := w(context.Background(), p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if p.traced {
		defs = perLayer
	}
	res, err := result(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, e := range out.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	out.report["workload"], out.report["seed"], out.report["host"] = *name, *seed, host
	out.report["traced"] = p.traced
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": out.report}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result shapes the last output line, insisting that the workload
// produced every metric in defs and nothing unnamed.
func result(out *outcome, defs []metricDef) (resultLine, error) {
	res := resultLine{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured: %v", missing)
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation attempted")
	}
	return res, nil
}
