package stackcache

// Restart-persistence differential: an artifact unit written to the
// disk tier and reloaded by a fresh store (a simulated process
// restart) must drive every registered engine to a bit-identical
// result — same output, stacks, memory image, step count, and error
// text — as the cold-compiled original. This is the warm-start
// contract behind vmd's -cachedir: what comes off disk is the same
// program, not a re-derivation of it.

import (
	"testing"

	"stackcache/internal/artifact"
	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/vm"
)

// persistSrc exercises memory, a counted loop and output, and carries
// quickenable sites (acc @ + is a q-lit-fetch-add once the variable's
// address literal lands in front), so the serialized unit is a
// quickened program with non-trivial facts.
const persistSrc = `
variable acc
: main
  5 0 do i acc @ + acc ! loop
  acc @ .
  acc @ 3 >= if 1 . else 0 . then
;`

func TestDiskUnitRunsIdenticallyAfterRestart(t *testing.T) {
	dir := t.TempDir()
	opts := forth.Options{}
	key := "src:" + artifact.SourceHash(opts.CacheKey(), persistSrc)
	cfg := artifact.Config{Dir: dir, Quicken: true, Optimize: true}

	cold := artifact.NewStore(cfg)
	u1, outcome, err := cold.GetOrBuild(key, func() (*vm.Program, error) {
		return forth.CompileWithOptions(persistSrc, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != artifact.Miss {
		t.Fatalf("cold outcome %v, want Miss", outcome)
	}
	if !u1.Quickened {
		t.Fatal("cold unit not quickened; the test program must carry fusion sites")
	}

	// Fresh store over the same directory: the unit must come off disk
	// — the produce function firing would mean a silent recompile.
	warm := artifact.NewStore(cfg)
	u2, outcome, err := warm.GetOrBuild(key, func() (*vm.Program, error) {
		t.Fatal("warm lookup invoked the compiler")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != artifact.DiskHit {
		t.Fatalf("warm outcome %v, want DiskHit", outcome)
	}
	if !vm.Equal(u1.Prog, u2.Prog) {
		t.Fatal("reloaded program differs from the cold-compiled original")
	}
	if u2.Quickened != u1.Quickened || u2.QuickenedOps != u1.QuickenedOps {
		t.Fatalf("reloaded quickening (%v, %d), cold (%v, %d)",
			u2.Quickened, u2.QuickenedOps, u1.Quickened, u1.QuickenedOps)
	}
	if u2.Optimized != u1.Optimized || u2.OptimizedOps != u1.OptimizedOps {
		t.Fatalf("reloaded optimization (%v, %v), cold (%v, %v)",
			u2.Optimized, u2.OptimizedOps, u1.Optimized, u1.OptimizedOps)
	}
	if f1, f2 := u1.Facts(), u2.Facts(); f2.Proved != f1.Proved ||
		f2.MaxDepth != f1.MaxDepth || f2.MaxRDepth != f1.MaxRDepth {
		t.Fatalf("reloaded facts (%v, %d, %d), cold (%v, %d, %d)",
			f2.Proved, f2.MaxDepth, f2.MaxRDepth, f1.Proved, f1.MaxDepth, f1.MaxRDepth)
	}

	// Engines prepare against the reloaded unit exactly as against a
	// fresh one (this is what service.Run does on a warm start).
	for _, e := range engine.All() {
		if p, ok := e.(engine.Preparer); ok {
			if err := p.Prepare(u2); err != nil {
				t.Fatalf("%s: Prepare on reloaded unit: %v", e.Name(), err)
			}
		}
	}

	// Every engine, full run and a starved budget (the error path),
	// compared field for field between the cold and reloaded programs.
	for _, budget := range []int64{0, 7} { // 0 = unlimited
		for _, er := range allEngines {
			s1, err1 := er.run(u1.Prog, budget)
			s2, err2 := er.run(u2.Prog, budget)
			if (err1 == nil) != (err2 == nil) ||
				(err1 != nil && err1.Error() != err2.Error()) {
				t.Fatalf("%s budget %d: cold err %v, warm err %v", er.name, budget, err1, err2)
			}
			if !s1.Equal(s2) || s1.Steps != s2.Steps {
				t.Fatalf("%s budget %d: cold and warm runs diverge (steps %d vs %d)",
					er.name, budget, s1.Steps, s2.Steps)
			}
		}
	}
}
