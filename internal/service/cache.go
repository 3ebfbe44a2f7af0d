package service

import (
	"stackcache/internal/artifact"
	"stackcache/internal/forth"
	"stackcache/internal/vm"
)

// CacheKey computes the source hash the program cache addresses a
// (options, source) pair by. It is artifact.SourceHash, so forthvm's
// -cachedir and vmd's address the same units and the CLIs can
// warm-start from a vmd cache directory.
func CacheKey(src string, opt forth.Options) string {
	return artifact.SourceHash(opt.CacheKey(), src)
}

// lookup returns the unit serving src. The service's program cache is
// its artifact store: a resident unit is a cache hit (Store.Lookup,
// which keeps the store's LRU in request order and counts nothing in
// the store); anything else goes through Store.GetOrBuild, which joins
// an in-flight build, loads the disk tier or compiles, verifies,
// optimizes, quickens and analyzes. Failed compiles reach every waiter
// and are never cached.
//
// Quickened and optimized program metrics count only true source
// builds: a unit served from the disk tier was counted by the process
// that built it.
func (s *Service) lookup(src string) (*artifact.Unit, artifact.Outcome, error) {
	hash := "src:" + CacheKey(src, s.cfg.CompileOptions)
	if u, ok := s.store.Lookup(hash); ok {
		s.metrics.cacheHits.Add(1)
		return u, artifact.MemoryHit, nil
	}
	u, outcome, err := s.store.GetOrBuild(hash, func() (*vm.Program, error) {
		return forth.CompileWithOptions(src, s.cfg.CompileOptions)
	})
	switch outcome {
	case artifact.MemoryHit:
		// Published by a concurrent request between the two calls.
		s.metrics.cacheHits.Add(1)
	case artifact.Coalesced:
		s.metrics.cacheCoalesced.Add(1)
	default:
		s.metrics.cacheMisses.Add(1)
	}
	if err == nil && outcome == artifact.Miss {
		if u.Quickened {
			s.metrics.quickenedPrograms.Add(1)
			s.metrics.quickenedOps.Add(int64(u.QuickenedOps))
		}
		if u.Optimized {
			s.metrics.optimizedPrograms.Add(1)
			for pass, n := range u.OptimizedOps {
				s.metrics.optimizedOps[pass].Add(int64(n))
			}
		}
	}
	return u, outcome, err
}

// cacheServed reports whether a lookup was served without compiling:
// a resident unit or a join onto another request's build.
func cacheServed(o artifact.Outcome) bool {
	return o == artifact.MemoryHit || o == artifact.Coalesced
}
