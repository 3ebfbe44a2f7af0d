package service

// The concurrent load-generator benchmark: drives the worker pool at
// varying parallelism with a mix of engines and cached programs, the
// service-layer analog of the per-engine kernels in the repository
// root's bench_test.go. BENCH_PR2.json at the repository root records
// an earlier fixed-work load sweep.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/workloads"
)

// loadMix is the request mix the generator cycles through: two cached
// micro workloads across a spread of engines.
func loadMix(b testing.TB) []Request {
	var mix []Request
	for _, name := range []string{"fib", "sieve"} {
		w, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("workload %s missing", name)
		}
		for _, e := range engine.Names() {
			mix = append(mix, Request{Source: w.Source, Engine: e})
		}
	}
	return mix
}

// drive fires n requests from the mix at the given parallelism and
// returns total executed steps.
func drive(b testing.TB, s *Service, mix []Request, n, parallelism int) int64 {
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	var steps int64
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		req := mix[i%len(mix)]
		sem <- struct{}{}
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := s.Run(context.Background(), req)
			if err != nil {
				b.Errorf("%s: %v", req.Engine, err)
				return
			}
			mu.Lock()
			steps += resp.Steps
			mu.Unlock()
		}(req)
	}
	wg.Wait()
	return steps
}

func benchService(b *testing.B, parallelism int) {
	s, err := New(Config{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	mix := loadMix(b)
	// Warm the cache so the benchmark measures the execute-many side
	// of compile-once.
	drive(b, s, mix, len(mix), parallelism)

	b.ResetTimer()
	steps := drive(b, s, mix, b.N, parallelism)
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	}
}

func BenchmarkServiceLoad(b *testing.B) {
	for _, p := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			benchService(b, p)
		})
	}
}
