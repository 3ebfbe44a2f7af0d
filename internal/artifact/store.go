package artifact

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"stackcache/internal/vm"
)

// Outcome says which tier satisfied a GetOrBuild.
type Outcome int

const (
	// MemoryHit: the unit was resident in the store's LRU.
	MemoryHit Outcome = iota
	// DiskHit: loaded (checksum-verified) from the on-disk tier.
	DiskHit
	// Miss: built from source via the produce callback.
	Miss
	// Coalesced: joined another caller's in-flight build.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case MemoryHit:
		return "memory_hit"
	case DiskHit:
		return "disk_hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Config shapes a Store.
type Config struct {
	// MaxUnits bounds the in-memory LRU; <1 means 512.
	MaxUnits int
	// Dir, when non-empty, enables the on-disk tier: every built unit
	// is persisted there and lookups consult it on memory miss.
	Dir string
	// Quicken rewrites verified programs to superinstructions
	// (vm.Quicken) and re-verifies the result.
	Quicken bool
	// Optimize runs the static optimizer over verified programs and
	// adopts the rewrite only when the translation validator
	// (vm.CheckTranslation) proves it observably equivalent; a refusal
	// is counted and the unoptimized program is served. Optimization
	// happens before quickening, so superinstruction fusion sees the
	// optimized instruction stream.
	Optimize bool
}

// Store is a bounded content-addressed cache of Units with
// single-flight builds and an optional disk tier. All methods are safe
// for concurrent use.
type Store struct {
	cfg Config

	// fp is the policy fingerprint folded into every store key and
	// written into every unit file, derived from the Config fields that
	// shape a unit: two stores with different policies never share
	// entries, in memory or on disk — a -quicken=false restart must not
	// serve quickened units. Its format is fixed, because existing
	// cache directories are addressed by it.
	fp string

	// The in-memory tier is keyed by the caller's hash alone: every
	// unit in one store shares its fingerprint, which completes the key
	// only in Unit.Key and on disk.
	mu       sync.Mutex
	lru      *list.List // of *Unit, front = most recent
	byKey    map[string]*list.Element
	inflight map[string]*inflightUnit

	memoryHits  atomic.Int64
	diskHits    atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	corrupt     atomic.Int64
	persisted   atomic.Int64
	persistErrs atomic.Int64
	evictions   atomic.Int64
	optRefused  atomic.Int64
}

// optimizeFn is vm.Optimize, indirected so tests can stand in a
// deliberately wrong optimizer and watch the validator gate refuse
// its output. Production code never reassigns it.
var optimizeFn = vm.Optimize

type inflightUnit struct {
	done    chan struct{}
	unit    *Unit
	outcome Outcome
	err     error
}

// Counters is a point-in-time snapshot of the store's tier counters.
type Counters struct {
	MemoryHits        int64
	DiskHits          int64
	Misses            int64
	Coalesced         int64
	CorruptRecomputed int64
	Persisted         int64
	PersistErrors     int64
	Evictions         int64

	// OptimizeRefused counts builds where the optimizer proposed a
	// rewrite the translation validator would not certify; the store
	// served the unoptimized program instead.
	OptimizeRefused int64
}

// NewStore returns an empty store. When cfg.Dir is set the directory
// is created eagerly so the first persist doesn't race a mkdir.
func NewStore(cfg Config) *Store {
	if cfg.MaxUnits < 1 {
		cfg.MaxUnits = 512
	}
	if cfg.Dir != "" {
		ensureDir(cfg.Dir)
	}
	return &Store{
		cfg:      cfg,
		fp:       "quicken=" + strconv.FormatBool(cfg.Quicken) + ",optimize=" + strconv.FormatBool(cfg.Optimize),
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*inflightUnit),
	}
}

// Counters returns the current tier counters.
func (s *Store) Counters() Counters {
	return Counters{
		MemoryHits:        s.memoryHits.Load(),
		DiskHits:          s.diskHits.Load(),
		Misses:            s.misses.Load(),
		Coalesced:         s.coalesced.Load(),
		CorruptRecomputed: s.corrupt.Load(),
		Persisted:         s.persisted.Load(),
		PersistErrors:     s.persistErrs.Load(),
		Evictions:         s.evictions.Load(),
		OptimizeRefused:   s.optRefused.Load(),
	}
}

// Len reports the number of resident units.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Lookup returns the unit resident for hash and marks it most recently
// used. It never builds, never consults the disk tier and counts
// nothing: a caller with its own hit accounting (the service) takes
// this hot path first and falls back to GetOrBuild.
func (s *Store) Lookup(hash string) (*Unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[hash]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*Unit), true
}

// GetOrBuild returns the unit for hash, staging through the tiers:
// memory LRU, in-flight build join, disk (when configured), and
// finally produce → verify → optimize+validate → quicken → analyze →
// persist. The full store key is (hash, policy fingerprint). Failed
// builds are never cached; concurrent callers for one key share a
// single build and its error.
func (s *Store) GetOrBuild(hash string, produce func() (*vm.Program, error)) (*Unit, Outcome, error) {
	s.mu.Lock()
	if el, ok := s.byKey[hash]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		s.memoryHits.Add(1)
		return el.Value.(*Unit), MemoryHit, nil
	}
	if fl, ok := s.inflight[hash]; ok {
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, Coalesced, fl.err
		}
		s.coalesced.Add(1)
		return fl.unit, Coalesced, nil
	}
	fl := &inflightUnit{done: make(chan struct{})}
	s.inflight[hash] = fl
	s.mu.Unlock()

	fl.unit, fl.outcome, fl.err = s.build(hash+"|"+s.fp, produce)

	var evicted []*Unit
	s.mu.Lock()
	delete(s.inflight, hash)
	if fl.err == nil {
		if el, ok := s.byKey[hash]; ok {
			// A concurrent path published first (possible only across
			// fingerprint-sharing stores reopening the same dir);
			// prefer the resident unit so identity stays unique.
			s.lru.MoveToFront(el)
			fl.unit = el.Value.(*Unit)
		} else {
			fl.unit.hash = hash
			s.byKey[hash] = s.lru.PushFront(fl.unit)
			for s.lru.Len() > s.cfg.MaxUnits {
				back := s.lru.Back()
				u := back.Value.(*Unit)
				s.lru.Remove(back)
				delete(s.byKey, u.hash)
				evicted = append(evicted, u)
				s.evictions.Add(1)
			}
		}
	}
	s.mu.Unlock()
	close(fl.done)

	if fl.err == nil {
		registerIdentity(fl.unit)
	}
	for _, u := range evicted {
		dropIdentity(u.Prog)
	}
	return fl.unit, fl.outcome, fl.err
}

// build resolves a key miss: disk first (when configured), then the
// produce callback through the verify/optimize/quicken/analyze gate.
func (s *Store) build(key string, produce func() (*vm.Program, error)) (*Unit, Outcome, error) {
	if s.cfg.Dir != "" {
		if u, ok := s.loadDisk(key); ok {
			s.diskHits.Add(1)
			return u, DiskHit, nil
		}
	}

	p, err := produce()
	if err != nil {
		return nil, Miss, err
	}
	if err := vm.Verify(p); err != nil {
		return nil, Miss, err
	}
	u := newUnit(key, p)
	var facts *vm.Facts
	if s.cfg.Optimize {
		// The optimizer is untrusted: its rewrite is adopted only when
		// the independent translation validator proves it observably
		// equivalent to what the front end produced. A refusal is not
		// an error — the unoptimized program is correct and is served.
		if r := optimizeFn(p); r.Changed {
			var proved vm.Facts
			if err := vm.CheckTranslation(p, r.Prog, &proved); err != nil {
				s.optRefused.Add(1)
			} else {
				p = r.Prog
				u.Prog = p
				u.Optimized = true
				for pass, n := range r.Ops {
					u.OptimizedOps[pass] = n
				}
				facts = &proved
			}
		}
	}
	// Analyze eagerly, and once: facts travel with the unit to disk, so
	// a warm start skips the abstract interpreter entirely. An adopted
	// rewrite arrives with the facts the validator proved it with.
	// Quickening below cannot change them (a superinstruction has its
	// first constituent's effect), so they are computed before it.
	if facts == nil {
		facts = vm.Analyze(p)
	}
	if s.cfg.Quicken {
		if q, n := vm.Quicken(p); n > 0 {
			// The quickened program goes back through the same verifier
			// gate as any compiled program: a bad rewrite must never
			// reach an engine.
			if err := vm.Verify(q); err != nil {
				return nil, Miss, err
			}
			u.Prog = q
			u.Quickened = true
			u.QuickenedOps = n
		}
	}
	u.facts = facts
	s.misses.Add(1)

	if s.cfg.Dir != "" {
		if err := s.persistDisk(u); err != nil {
			s.persistErrs.Add(1)
		} else {
			s.persisted.Add(1)
		}
	}
	return u, Miss, nil
}
