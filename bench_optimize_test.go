package stackcache

// Optimized vs unoptimized bytecode over the paper's four workloads —
// the acceptance benchmark for the proof-carrying optimizer. Each
// engine runs the same workload in both forms in tightly interleaved
// A/B rounds (best round kept), so machine drift cannot bias the
// comparison. Unlike quickening, optimization changes the step count
// (that is the whole point); each form's own step count is recorded,
// and the rewrite is re-certified by the translation validator before
// any timing. The recursive gray workload is not depth-provable, so
// its "optimized" form is the unchanged source program — an honest A/A
// cell kept in the sweep so the report shows where the Proved gate
// declines. BENCH_PR10.json at the repository root records an earlier
// interleaved A/B of the same cells.

import (
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// optimizeBenchEngines spans the dispatch spectrum: the paper's
// baseline switch, its fastest classic dispatch, and the AOT-compiled
// engine whose fused paths see the optimized instruction stream.
var optimizeBenchEngines = []string{"switch", "threaded", "compiled"}

// optimizedProgram runs the optimizer and re-certifies the rewrite
// with the translation validator, returning the program to serve and
// whether it changed.
func optimizedProgram(tb testing.TB, p *vm.Program) (*vm.Program, bool) {
	tb.Helper()
	r := vm.Optimize(p)
	if !r.Changed {
		return p, false
	}
	if err := vm.CheckTranslation(p, r.Prog); err != nil {
		tb.Fatalf("optimizer rewrite refused by its validator: %v", err)
	}
	return r.Prog, true
}

func BenchmarkOptimizedVsUnoptimized(b *testing.B) {
	for _, name := range optimizeBenchEngines {
		e, ok := engine.Lookup(name)
		if !ok {
			b.Fatalf("engine %q not registered", name)
		}
		for _, w := range paperWorkloads {
			p := benchProgram(b, w)
			o, changed := optimizedProgram(b, p)
			if !changed {
				continue
			}
			for _, form := range []struct {
				label string
				prog  *vm.Program
			}{{"source", p}, {"optimized", o}} {
				b.Run(name+"/"+w+"/"+form.label, func(b *testing.B) {
					var steps int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m := interp.NewMachine(form.prog)
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
}
