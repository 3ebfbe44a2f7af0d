package stackcache

// The AOT closure compiler vs the switch baseline over all eight
// workloads, in two forms: "raw", the program as the Forth compiler
// emits it, and "served", the program vmd runs — built through an
// artifact.Store with Quicken and Optimize on (vmd's defaults) and run
// with the store's analysis facts attached. BENCH_PR7.json at the
// repository root records an earlier interleaved A/B of the raw pairs
// over the four paper workloads.

import (
	"testing"

	"stackcache/internal/artifact"
	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// paperWorkloads is the four-program suite from the paper's evaluation
// (Ertl §5): the three Gforth application traces and the cross
// compiler.
var paperWorkloads = []string{"compile", "gray", "prims2x", "cross"}

// servedProgram builds src the way vmd serves it: through an
// artifact.Store with vmd's default Quicken and Optimize policy. It
// returns the served program and its analysis facts.
func servedProgram(tb testing.TB, src string) (*vm.Program, *vm.Facts) {
	tb.Helper()
	opts := forth.Options{}
	store := artifact.NewStore(artifact.Config{Quicken: true, Optimize: true})
	u, _, err := store.GetOrBuild(
		"src:"+artifact.SourceHash(opts.CacheKey(), src),
		func() (*vm.Program, error) { return forth.CompileWithOptions(src, opts) },
	)
	if err != nil {
		tb.Fatal(err)
	}
	return u.Prog, u.Facts()
}

func BenchmarkCompiledVsSwitch(b *testing.B) {
	for _, name := range []string{"compiled", "switch"} {
		e, ok := engine.Lookup(name)
		if !ok {
			b.Fatalf("engine %q not registered", name)
		}
		for _, form := range []string{"raw", "served"} {
			for _, w := range workloads.All() {
				// Raw runs let the engine attach its own facts (nil
				// here); served runs carry the store's, as vmd's do.
				p, facts := w.MustCompile(), (*vm.Facts)(nil)
				if form == "served" {
					p, facts = servedProgram(b, w.Source)
				}
				b.Run(name+"/"+form+"/"+w.Name, func(b *testing.B) {
					var steps int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m := interp.NewMachine(p)
						m.Facts = facts
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
