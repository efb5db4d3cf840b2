package main

import (
	"runtime"
	"sync"
	"time"
)

// hostBlock describes the machine a result was measured on, so two sets
// of runs can be checked for host drift before their numbers are compared.
type hostBlock struct {
	CPUModel   string   `json:"cpu_model"`
	SIMD       []string `json:"simd"`
	Arch       string   `json:"arch"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	// SpinMops is single-goroutine throughput on a fixed integer loop,
	// in millions of iterations per second: a host speed score.
	SpinMops float64 `json:"spin_mops"`
	// Parallelism is the throughput of two goroutines running the same
	// loop divided by one goroutine's: 2.0 on two free cores, about 1.0
	// when the host gives this process one core's worth of time.
	Parallelism float64 `json:"effective_parallelism"`
}

const spinIters = 20_000_000

var spinSink uint64

func spin(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// spinRate runs g goroutines of spinIters each and returns the aggregate
// iterations per second, best of three.
func spinRate(g int) float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		t0 := time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := spin(spinIters)
				mu.Lock()
				spinSink += v
				mu.Unlock()
			}()
		}
		wg.Wait()
		if r := float64(g*spinIters) / time.Since(t0).Seconds(); r > best {
			best = r
		}
	}
	return best
}

func probeHost() hostBlock {
	model, simd := cpuModel()
	one := spinRate(1)
	two := spinRate(2)
	return hostBlock{
		CPUModel:    model,
		SIMD:        simd,
		Arch:        runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		SpinMops:    one / 1e6,
		Parallelism: two / one,
	}
}
