package stackcache

// Registry-driven per-engine benchmark: every registered engine over
// the same workload through the uniform Engine interface, the
// wall-clock companion to the differential tests. Registering a new
// engine adds a sub-benchmark with zero edits. BENCH_PR4.json at the
// repository root records an earlier fixed-work run of this sweep.

import (
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/interp"
)

func BenchmarkEngineRegistry(b *testing.B) {
	p := benchProgram(b, "fib")
	for _, e := range engine.All() {
		b.Run(e.Name(), func(b *testing.B) {
			var steps int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := interp.NewMachine(p)
				if err := e.Run(m); err != nil {
					b.Fatal(err)
				}
				steps = m.Steps
			}
			reportPerInst(b, steps)
			b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
