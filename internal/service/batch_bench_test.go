package service

// Batched-vs-singleton service benchmark: for sub-microsecond
// programs, the per-request overhead (queue hand-off, worker wake-up,
// machine setup, response assembly) dominates actual interpretation —
// the serving-layer analog of the dispatch overhead the paper
// amortizes with stack caching. Batch requests amortize it across N
// inputs per worker pass. BENCH_PR6.json at the repository root
// records an earlier batched-vs-singleton sweep.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"stackcache/internal/vm"
)

// benchBatchSource is the small-program amortization target: two
// argument cells in, one addition, one print.
const benchBatchSource = ": main + . ;"

func benchInputs(n int) []Input {
	inputs := make([]Input, n)
	for i := range inputs {
		inputs[i] = Input{Args: []vm.Cell{vm.Cell(i), vm.Cell(i + 1)}}
	}
	return inputs
}

// runSingletons executes the inputs as one-request-per-input, the way
// a front end without batch support would.
func runSingletons(tb testing.TB, s *Service, inputs []Input) {
	for _, in := range inputs {
		if _, err := s.Run(context.Background(),
			Request{Source: benchBatchSource, Args: in.Args}); err != nil {
			tb.Fatal(err)
		}
	}
}

// runBatches executes the same inputs in batches of size batch, one
// request per batch.
func runBatches(tb testing.TB, s *Service, inputs []Input, batch int) {
	for lo := 0; lo < len(inputs); lo += batch {
		hi := lo + batch
		if hi > len(inputs) {
			hi = len(inputs)
		}
		if _, err := s.Run(context.Background(),
			Request{Source: benchBatchSource, Inputs: inputs[lo:hi]}); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkBatchVsSingleton(b *testing.B) {
	newService := func(b *testing.B) *Service {
		s, err := New(Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: 1024, MaxBatchInputs: 256})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(s.Close)
		// Warm the program cache; the benchmark measures execution.
		runSingletons(b, s, benchInputs(1))
		return s
	}

	// A fixed recycled input pool: allocating b.N inputs up front would
	// let their garbage collection pollute the timed section.
	inputs := benchInputs(256)

	b.Run("singleton", func(b *testing.B) {
		s := newService(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSingletons(b, s, inputs[i%len(inputs):i%len(inputs)+1])
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inputs/s")
	})
	for _, batch := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s := newService(b)
			b.ResetTimer()
			// b.N counts inputs, so ns/op stays per-input and
			// comparable with the singleton case.
			for done := 0; done < b.N; done += batch {
				n := batch
				if n > b.N-done {
					n = b.N - done
				}
				runBatches(b, s, inputs[:n], n)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inputs/s")
		})
	}
}
