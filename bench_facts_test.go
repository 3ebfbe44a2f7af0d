package stackcache

// Elision benchmark: every registered engine over the paper's four
// workloads plus sieve, once with analysis facts attached (the
// check-elided fast path, where the engine keeps one) and once with
// the elision kill switch thrown (vm.NoFacts, the checked path). The
// wall-clock companion to the elision differential tests in
// facts_test.go: those prove the two paths are observably identical,
// this measures what the proof buys. The recursive gray workload is
// not depth-provable, so its two modes both run the checked path — an
// A/A control kept in the sweep. BENCH_PR5.json at the repository
// root records an earlier sieve-only run.

import (
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

func BenchmarkElision(b *testing.B) {
	for _, w := range append([]string{"sieve"}, paperWorkloads...) {
		p := benchProgram(b, w)
		if w != "gray" && !engine.FactsFor(p).Proved {
			b.Fatalf("%s unproven; the elision benchmark needs it proved", w)
		}
		for _, e := range engine.All() {
			for _, mode := range []string{"elided", "checked"} {
				spec := interp.ExecSpec{}
				if mode == "checked" {
					spec.Facts = vm.NoFacts
				}
				b.Run(w+"/"+e.Name()+"/"+mode, func(b *testing.B) {
					var steps int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m := interp.NewMachine(p)
						if err := m.ApplySpec(spec); err != nil {
							b.Fatal(err)
						}
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
