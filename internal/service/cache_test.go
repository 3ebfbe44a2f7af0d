package service

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"stackcache/internal/artifact"
	"stackcache/internal/compiled"
	"stackcache/internal/forth"
)

func srcN(i int) string { return fmt.Sprintf(": main %d . ;", i) }

// compileOutcome compiles src through s and reports whether the cache
// served it.
func compileOutcome(t *testing.T, s *Service, src string) (key string, served bool) {
	t.Helper()
	key, served, err := s.Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return key, served
}

func TestCacheHitMiss(t *testing.T) {
	s := mustService(t)
	k1, served := compileOutcome(t, s, srcN(1))
	if served {
		t.Fatal("first compile was served from the cache")
	}
	k2, served := compileOutcome(t, s, srcN(1))
	if !served || k1 != k2 {
		t.Fatalf("second compile: served=%v key %q vs %q", served, k2, k1)
	}
	snap := s.Stats()
	if snap.CacheMisses != 1 || snap.CacheHits != 1 {
		t.Errorf("misses %d hits %d, want 1/1", snap.CacheMisses, snap.CacheHits)
	}
	// A service hit is a resident lookup, not a store memory hit: the
	// store counts only what reached GetOrBuild.
	if a := snap.Artifact; a.Misses != 1 || a.MemoryHits != 0 {
		t.Errorf("artifact counters %+v, want 1 miss / 0 memory hits", a)
	}
}

// TestCacheKeyIncludesOptions checks that the same source under
// different compile options gets different content addresses.
func TestCacheKeyIncludesOptions(t *testing.T) {
	src := ": main 1 2 + . ;"
	plain := CacheKey(src, forth.Options{})
	super := CacheKey(src, forth.Options{Superinstructions: true})
	if plain == super {
		t.Error("cache key ignores compile options")
	}
	if plain != CacheKey(src, forth.Options{}) {
		t.Error("cache key not deterministic")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	const max = 4
	s := mustService(t, func(c *Config) { c.CacheSize = max })
	for i := 0; i < max; i++ {
		compileOutcome(t, s, srcN(i))
	}
	// Touch entry 0 so it is the most recently used, then overflow:
	// entry 1 must be the victim.
	if _, served := compileOutcome(t, s, srcN(0)); !served {
		t.Fatal("entry 0 not cached before overflow")
	}
	compileOutcome(t, s, srcN(max))
	snap := s.Stats()
	if snap.CacheSize != max {
		t.Errorf("cache size %d after eviction, want %d", snap.CacheSize, max)
	}
	if snap.CacheEvictions != 1 {
		t.Errorf("evictions %d, want 1", snap.CacheEvictions)
	}
	if _, served := compileOutcome(t, s, srcN(0)); !served {
		t.Error("recently-used entry 0 was evicted")
	}
	if _, served := compileOutcome(t, s, srcN(1)); served {
		t.Error("least-recently-used entry 1 survived eviction")
	}
}

// TestCacheSingleFlight: N concurrent lookups of one novel source cost
// one compile; every other lookup is a hit or a join onto that build,
// and all of them get the same program.
func TestCacheSingleFlight(t *testing.T) {
	s := mustService(t)
	const n = 16
	var wg sync.WaitGroup
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, _, err := s.Compile(": main 42 . ;")
			if err != nil {
				t.Error(err)
			}
			keys[i] = k
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if keys[i] != keys[0] {
			t.Fatal("concurrent lookups got distinct programs")
		}
	}
	snap := s.Stats()
	if snap.CacheMisses != 1 || snap.Artifact.Misses != 1 {
		t.Errorf("service misses %d, store builds %d, want exactly 1 each",
			snap.CacheMisses, snap.Artifact.Misses)
	}
	if snap.CacheHits+snap.CacheCoalesced != n-1 {
		t.Errorf("hits %d + coalesced %d, want %d", snap.CacheHits, snap.CacheCoalesced, n-1)
	}
}

// TestCacheFailedCompileNotCached checks that a failing compile is
// reported but never enters the cache: a retry compiles again.
func TestCacheFailedCompileNotCached(t *testing.T) {
	s := mustService(t)
	bad := ": main no-such-word ;"
	for i := 0; i < 2; i++ {
		if _, _, err := s.Compile(bad); Classify(err) != ClassCompile {
			t.Fatalf("compile %d of a bad source: %v, want a compile error", i, err)
		}
	}
	snap := s.Stats()
	if snap.CacheMisses != 2 || snap.CacheHits != 0 {
		t.Errorf("misses %d hits %d, want 2/0 (failures are never cached)", snap.CacheMisses, snap.CacheHits)
	}
	if snap.CacheSize != 0 {
		t.Errorf("cache size %d after failures, want 0", snap.CacheSize)
	}
}

func TestHitRate(t *testing.T) {
	for _, tc := range []struct {
		hits, misses, coalesced int64
		want                    float64
	}{
		{0, 0, 0, 0},
		{0, 4, 0, 0},
		{3, 1, 0, 0.75},
		{0, 1, 3, 0.75}, // joins onto a build compile nothing
		{6, 2, 2, 0.8},
	} {
		snap := Snapshot{CacheHits: tc.hits, CacheMisses: tc.misses, CacheCoalesced: tc.coalesced}
		if got := snap.HitRate(); got != tc.want {
			t.Errorf("HitRate(hits %d, misses %d, coalesced %d) = %v, want %v",
				tc.hits, tc.misses, tc.coalesced, got, tc.want)
		}
	}
}

// TestServedUnitIsTheIdentityUnit is the regression for a cache layer
// whose eviction order drifted from the store's: a program the service
// still served could lose its store identity, so engines resolving
// artifact.Of(prog) at run time rebuilt facts and prepared blobs on a
// bare unit. Under a two-program cache, A B A C leaves A resident; its
// unit must stay the one Of resolves, and each engine's prepared blob
// must be built once per program.
func TestServedUnitIsTheIdentityUnit(t *testing.T) {
	for _, eng := range []string{"compiled", "static"} {
		t.Run(eng, func(t *testing.T) {
			s := mustService(t, func(c *Config) { c.CacheSize = 2 })
			src := func(name string) string {
				return fmt.Sprintf(": main %d %d * . ;", len(eng), name[0])
			}
			before, _ := compiled.Counters()
			for i, name := range []string{"A", "B", "A", "C", "A"} {
				resp, err := s.Run(context.Background(), Request{Source: src(name), Engine: eng})
				if err != nil {
					t.Fatalf("request %d (%s): %v", i, name, err)
				}
				u, ok := s.store.Lookup("src:" + CacheKey(src(name), s.cfg.CompileOptions))
				if !ok || u.Key != resp.Key {
					t.Fatalf("request %d (%s): served unit not resident", i, name)
				}
				if artifact.Of(u.Prog) != u {
					t.Fatalf("request %d (%s): artifact.Of(prog) is not the served unit", i, name)
				}
			}
			after, _ := compiled.Counters()
			if eng == "compiled" && after-before != 3 {
				t.Errorf("%d closure artifacts built for 3 programs, want 3", after-before)
			}
		})
	}
}
