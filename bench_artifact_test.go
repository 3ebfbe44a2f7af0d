package stackcache

// Cold vs warm artifact acquisition over the paper's four workloads —
// the acceptance benchmark for the on-disk artifact tier. "Cold" runs
// the full pipeline from source (compile, verify, quicken, re-verify,
// analyze, persist); "warm" is a fresh store over an already-populated
// cache directory, i.e. what a restarted vmd pays before first
// execution. The two phases run in tightly interleaved A/B rounds
// (best round kept) so machine drift cannot bias the comparison, and
// every warm acquisition is asserted to be a disk hit — a silent
// recompile would be measured as a (bogus) warm number.
// BENCH_PR9.json at the repository root records an earlier
// interleaved A/B of the two phases.

import (
	"path/filepath"
	"strconv"
	"testing"

	"stackcache/internal/artifact"
	"stackcache/internal/forth"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// acquireUnit resolves one workload source through a fresh store (so
// nothing is served from memory) rooted at dir, returning the outcome.
func acquireUnit(tb testing.TB, dir, src string) artifact.Outcome {
	tb.Helper()
	opts := forth.Options{}
	store := artifact.NewStore(artifact.Config{
		Dir:         dir,
		Quicken:     true,
		Fingerprint: "quicken=true",
	})
	_, outcome, err := store.GetOrBuild(
		"src:"+artifact.SourceHash(opts.CacheKey(), src),
		func() (*vm.Program, error) { return forth.CompileWithOptions(src, opts) },
	)
	if err != nil {
		tb.Fatal(err)
	}
	return outcome
}

func BenchmarkArtifactColdVsWarm(b *testing.B) {
	for _, w := range paperWorkloads {
		wl, ok := workloads.ByName(w)
		if !ok {
			b.Fatalf("unknown workload %q", w)
		}
		b.Run(w+"/cold", func(b *testing.B) {
			root := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acquireUnit(b, filepath.Join(root, strconv.Itoa(i)), wl.Source)
			}
		})
		b.Run(w+"/warm", func(b *testing.B) {
			dir := b.TempDir()
			acquireUnit(b, dir, wl.Source) // populate
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := acquireUnit(b, dir, wl.Source); out != artifact.DiskHit {
					b.Fatalf("warm acquisition was %v, want DiskHit", out)
				}
			}
		})
	}
}
