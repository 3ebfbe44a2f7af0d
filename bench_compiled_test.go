package stackcache

// The AOT closure compiler vs the switch baseline over the paper's
// four workloads — the acceptance benchmark for the "compiled" engine
// (dispatch specialized around the program, not the loop).
// BENCH_PR7.json at the repository root records an earlier
// interleaved A/B of the same pairs.

import (
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/interp"
)

// paperWorkloads is the four-program suite from the paper's evaluation
// (Ertl §5): the three Gforth application traces and the cross
// compiler.
var paperWorkloads = []string{"compile", "gray", "prims2x", "cross"}

func BenchmarkCompiledVsSwitch(b *testing.B) {
	for _, name := range []string{"compiled", "switch"} {
		e, ok := engine.Lookup(name)
		if !ok {
			b.Fatalf("engine %q not registered", name)
		}
		for _, w := range paperWorkloads {
			p := benchProgram(b, w)
			b.Run(name+"/"+w, func(b *testing.B) {
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
}
