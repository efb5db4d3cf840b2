package main

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of client goroutines, and so of connections, the
// open-loop generator uses: the nproc of the two-vCPU host the benchmark
// was tuned on, fixed so that results do not depend on the host's size.
const clients = 2

// maxLateMs is the generator's own lateness budget: the p99, over a
// rate's whole phase, of how late a request left after its due time while
// a client goroutine was free to send it. A phase over it measured the
// host's scheduler, not the program, and the run is marked invalid.
const maxLateMs = 20.0

// phase is the outcome of one open-loop phase at a fixed offered rate.
type phase struct {
	Rate    float64 `json:"rate"`
	Sent    int     `json:"sent"`
	Failed  int     `json:"failed"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P99     float64 `json:"p99_ms"`
	LateP99 float64 `json:"late_p99_ms"`
	// TailP50 is the median latency of the last quarter of the schedule;
	// with p90 within the limit it rules out a growing backlog.
	TailP50 float64 `json:"tail_p50_ms"`
	// Valid reports that the generator kept to its schedule (LateP99
	// within maxLateMs).
	Valid bool `json:"valid"`
	// SegP90 lists the p90 of each segment a combined phase came from.
	SegP90 []float64 `json:"segment_p90_ms,omitempty"`

	lat  []float64
	late []float64
}

// sendFunc performs request idx, which was due at due. It returns when
// the answer arrived and whether the request failed: a transport error, a
// non-2xx or shed answer, or an answer the checks found wrong. Checks run
// after done, so they are not charged to the request.
type sendFunc func(ctx context.Context, idx uint64, due time.Time) (done time.Time, failed bool)

// openLoop offers requests first, first+1, ... at rate per second for dur
// on a fixed schedule: request i is due at start + i/rate whatever
// happened to earlier requests. Latency is timed from the due time, so a
// stall is charged to every request it delays.
func openLoop(ctx context.Context, rate float64, dur time.Duration, first uint64, send sendFunc) phase {
	n := int(math.Round(rate * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	lat := make([]float64, n)
	late := make([]float64, n)
	failed := make([]bool, n)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				ready := time.Now()
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				free := due
				if ready.After(free) {
					free = ready
				}
				late[i] = ms(sent.Sub(free))
				done, bad := send(ctx, first+uint64(i), due)
				failed[i] = bad
				lat[i] = ms(done.Sub(due))
			}
		}()
	}
	wg.Wait()
	p := phase{Rate: rate, Sent: n, lat: lat, late: late}
	for _, f := range failed {
		if f {
			p.Failed++
		}
	}
	p.P50, p.P90, p.P99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	p.LateP99 = quantile(late, 0.99)
	p.TailP50 = median(lat[n-n/4:])
	p.Valid = p.LateP99 <= maxLateMs
	return p
}

// combine merges the segments of one rate: counts add up, and each
// latency statistic is the lower quartile over segments. Other tenants of
// a shared host only ever slow a segment down, in spells that can cover
// most of a run; the quieter quarter of the segments still shows what the
// program does, and one segment more or less moves it little.
func combine(segs []phase) phase {
	p := phase{Rate: segs[0].Rate}
	var p50, p90, p99, tail []float64
	for _, s := range segs {
		p.Sent += s.Sent
		p.Failed += s.Failed
		p50, p90, p99, tail = append(p50, s.P50), append(p90, s.P90), append(p99, s.P99), append(tail, s.TailP50)
		p.lat = append(p.lat, s.lat...)
		p.late = append(p.late, s.late...)
	}
	p.P50, p.P90, p.P99, p.TailP50 = quantile(p50, 0.25), quantile(p90, 0.25), quantile(p99, 0.25), quantile(tail, 0.25)
	p.LateP99 = quantile(p.late, 0.99)
	p.Valid = p.LateP99 <= maxLateMs
	p.SegP90 = p90
	return p
}

// meets reports whether a phase met the latency limit with no failures
// and no growing backlog. Failures count as misses.
func (p phase) meets(limitMs float64) bool {
	return p.Failed == 0 && p.P90 <= limitMs && p.TailP50 <= limitMs
}

// ladder searches for slo_rps, the highest offered rate whose latency
// meets limitMs: it sweeps rates pass*step^k for k = 1..rungs, where pass
// is the high rate, up and down again, five times. A rate that met a
// quarter of the limit, or missed four times the limit, is not probed
// again, so the probes gather where latency turns. They are taken a few
// at a time between the fixed-rate segments, so the search spans the
// whole run like the other metrics. Each rate is judged by its median
// probe: a short probe just past capacity can finish before its backlog
// shows, and a host hiccup can spoil one below it, but rarely most.
type ladder struct {
	pass, limitMs float64
	probeDur      time.Duration
	first         uint64
	send          sendFunc
	order         []int
	runs          [][]phase // probes taken at each rung
	probes        []phase
}

const (
	ladderRungs  = 10
	ladderStep   = 1.2
	ladderRounds = 5
	// ladderProbes is how many probes the search takes; unless the
	// ladder runs out first, the rounds end there.
	ladderProbes = 30
)

func newLadder(pass, limitMs float64, budget time.Duration, first uint64, send sendFunc) *ladder {
	l := &ladder{
		pass: pass, limitMs: limitMs, probeDur: budget / ladderProbes,
		first: first, send: send, runs: make([][]phase, ladderRungs+1),
	}
	for r := 0; r < ladderRounds; r++ {
		for i := 1; i <= ladderRungs; i++ {
			k := i
			if r%2 == 1 {
				k = ladderRungs + 1 - i
			}
			l.order = append(l.order, k)
		}
	}
	return l
}

// verdict is the median probe of rung k (the upper one of two).
func (l *ladder) verdict(k int) phase {
	ps := slices.Clone(l.runs[k])
	if len(ps) == 0 {
		return phase{P90: math.Inf(1), TailP50: math.Inf(1)}
	}
	slices.SortFunc(ps, func(a, b phase) int { return cmp.Compare(a.P90, b.P90) })
	return ps[len(ps)/2]
}

// step runs the next probe the order calls for, skipping rates already
// settled by far.
func (l *ladder) step(ctx context.Context) {
	for len(l.order) > 0 && len(l.probes) < ladderProbes {
		k := l.order[0]
		l.order = l.order[1:]
		if v := l.verdict(k); len(l.runs[k]) > 0 && (v.P90 > 4*l.limitMs || v.meets(l.limitMs/4)) {
			continue
		}
		p := openLoop(ctx, l.pass*math.Pow(ladderStep, float64(k)), l.probeDur, l.first, l.send)
		l.first += uint64(p.Sent)
		l.probes = append(l.probes, p)
		l.runs[k] = append(l.runs[k], p)
		return
	}
}

// rate interpolates, in log rate against log p90, between the highest
// rate that meets the limit along with every lower one and the next rate
// up. base is the measured phase at the pass rate itself, and low the one
// below it, used when the pass rate already misses the limit.
func (l *ladder) rate(low, base phase) float64 {
	interp := func(rLo, pLo, rHi, pHi float64) float64 {
		if pHi <= pLo || l.limitMs <= pLo || l.limitMs >= pHi {
			return rLo
		}
		f := (math.Log(l.limitMs) - math.Log(pLo)) / (math.Log(pHi) - math.Log(pLo))
		return math.Exp(math.Log(rLo) + f*(math.Log(rHi)-math.Log(rLo)))
	}
	if !base.meets(l.limitMs) {
		return interp(low.Rate, low.P90, base.Rate, base.P90)
	}
	top, pLo := 0, base.P90
	for k := 1; k <= ladderRungs && l.verdict(k).meets(l.limitMs); k++ {
		top, pLo = k, l.verdict(k).P90
	}
	rLo := l.pass * math.Pow(ladderStep, float64(top))
	if top == ladderRungs {
		return rLo
	}
	return interp(rLo, pLo, rLo*ladderStep, l.verdict(top+1).P90)
}
