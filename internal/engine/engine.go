// Package engine is the uniform seam over every execution engine in
// the repository: the baseline dispatch techniques (internal/interp),
// the dynamic stack-caching organizations (internal/dyncache), the
// static stack-caching compiler/executor (internal/statcache) and the
// generated per-state interpreter (internal/gendyn) all register here
// behind one interface.
//
// The paper's whole method (§2.1, §4–5) is comparing interchangeable
// engine variants over identical machine semantics; this package is
// that comparison harness as a first-class API. Consumers — the
// execution service, the CLIs, and the cross-engine differential,
// malformed-program and fuzz tests — iterate the registry instead of
// hard-coding an engine list, so registering a new variant (one
// Register call) makes it selectable everywhere and automatically
// covered by every semantic check.
//
// Engines run over an interp.Machine configured by the caller; budgets
// and program inputs travel through interp.ExecSpec, never through
// per-engine entry points.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"stackcache/internal/artifact"
	"stackcache/internal/core"
	"stackcache/internal/dyncache"
	"stackcache/internal/interp"
	"stackcache/internal/statcache"
)

// Engine is one execution engine. Run executes the machine's current
// program to halt or error; the machine carries the program, budgets
// and initial state (interp.Machine.ApplySpec), and holds the final
// observable state afterwards.
type Engine interface {
	// Name is the engine's wire name — the value service requests and
	// CLI flags use, and the registry key.
	Name() string

	// Run executes m's program. The machine must be in a runnable
	// state (NewMachine, Reset or Rebind, optionally ApplySpec).
	Run(m *interp.Machine) error
}

// Traits describes contract properties differential tests key on.
type Traits struct {
	// Exact engines promise bit-identical observable state to the
	// switch baseline on success and the same error class
	// (RuntimeError.Msg) on failure.
	Exact bool

	// NeedsVerify marks engines whose compiler rejects programs that
	// fail vm.Verify; differential tests skip the exactness comparison
	// for them on such programs.
	NeedsVerify bool
}

// TraitReporter is implemented by engines whose contract deviates from
// the default (exact, no verification requirement).
type TraitReporter interface {
	Traits() Traits
}

// TraitsOf returns an engine's traits; engines that do not report any
// are exact and accept unverified programs.
func TraitsOf(e Engine) Traits {
	if tr, ok := e.(TraitReporter); ok {
		return tr.Traits()
	}
	return Traits{Exact: true}
}

// CountingEngine is implemented by engines that account the paper's
// argument-access cost model. RunCounted is Run plus the counters.
type CountingEngine interface {
	Engine
	RunCounted(m *interp.Machine) (core.Counters, error)
}

// Preparer is implemented by engines with a per-program compile step
// (the static stack-caching planner, the AOT closure compiler).
// Services call Prepare with the program's artifact unit before
// queueing an execution so plan-compilation failures classify as
// compile errors and workers only ever receive ready-to-run work; Run
// prepares on demand (through artifact.Of) when the caller did not.
// Prepared blobs live on the unit, keyed by engine + policy
// fingerprint, so engine instances built from different Policies get
// distinct plans on one shared unit.
type Preparer interface {
	Prepare(u *artifact.Unit) error
}

// Policies bundles every caching engine's configuration. Instances
// built from one Policies value share it for all executions, so plan
// caches stay small (one plan per program) and transition tables are
// shared.
type Policies struct {
	// Dynamic configures the "dynamic" engine (minimal organization).
	Dynamic core.MinimalPolicy
	// Rotating configures the "rotating" engine.
	Rotating core.RotatingPolicy
	// TwoStacks configures the "twostacks" engine.
	TwoStacks dyncache.TwoStackPolicy
	// Static configures the "static" engine's compile-once plans.
	Static statcache.Policy
}

// DefaultPolicies returns the configurations the paper's evaluation
// centers on: a register file of 6 with overflow followup 5 (dynamic),
// and canonical depth 2 (static).
func DefaultPolicies() Policies {
	return Policies{
		Dynamic:   core.MinimalPolicy{NRegs: 6, OverflowTo: 5},
		Rotating:  core.RotatingPolicy{NRegs: 6, OverflowTo: 5},
		TwoStacks: dyncache.TwoStackPolicy{NRegs: 6, RMax: 2, OverflowTo: 4},
		Static:    statcache.Policy{NRegs: 6, Canonical: 2},
	}
}

// Validate checks every policy.
func (p Policies) Validate() error {
	if err := p.Dynamic.Validate(); err != nil {
		return err
	}
	if err := p.Rotating.Validate(); err != nil {
		return err
	}
	if err := p.TwoStacks.Validate(); err != nil {
		return err
	}
	return p.Static.Validate()
}

// Builder constructs an engine instance configured by pol. Builders
// must be cheap; expensive per-program work (plan compilation) belongs
// in Prepare/Run.
type Builder func(pol Policies) Engine

// The registry. Registration happens at init time (engines.go);
// lookups are read-mostly and guarded for completeness, so tests may
// register throwaway engines.
var registry = struct {
	sync.RWMutex
	builders map[string]Builder

	defaults map[string]Engine // lazily built DefaultPolicies instances
}{
	builders: make(map[string]Builder),
	defaults: make(map[string]Engine),
}

// Register adds an engine under its wire name. Adding an engine to the
// repository is exactly one Register call; everything downstream (the
// service, the CLIs, the differential tests) picks it up from the
// registry. Register panics on a duplicate name — engine names are an
// API.
func Register(name string, b Builder) {
	if name == "" || b == nil {
		panic("engine: Register with empty name or nil builder")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.builders[name]; dup {
		panic(fmt.Sprintf("engine: duplicate Register(%q)", name))
	}
	registry.builders[name] = b
}

// namesLocked computes the canonical engine order: the "switch"
// baseline first (it is the reference every differential sweep
// compares against), then every other name sorted alphabetically. The
// order is a pure function of the registered set — independent of init
// order — so endpoint listings and test sweeps are stable across
// refactors that shuffle registration.
func namesLocked() []string {
	out := make([]string, 0, len(registry.builders))
	for name := range registry.builders {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i] == "switch" || out[j] == "switch" {
			return out[i] == "switch"
		}
		return out[i] < out[j]
	})
	return out
}

// Names returns every registered engine name in canonical order: the
// switch baseline first, the rest sorted alphabetically.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return namesLocked()
}

// Lookup returns the default-policy instance of the named engine.
// Instances are cached, so repeated lookups share plan caches and
// transition tables.
func Lookup(name string) (Engine, bool) {
	registry.Lock()
	defer registry.Unlock()
	if e, ok := registry.defaults[name]; ok {
		return e, true
	}
	b, ok := registry.builders[name]
	if !ok {
		return nil, false
	}
	e := b(DefaultPolicies())
	registry.defaults[name] = e
	return e, true
}

// All returns the default-policy instance of every registered engine,
// in canonical order. The switch baseline is first: differential
// tests use it as the reference the others are compared against.
func All() []Engine {
	names := Names()
	out := make([]Engine, 0, len(names))
	for _, name := range names {
		e, _ := Lookup(name)
		out = append(out, e)
	}
	return out
}

// AllWith validates pol and builds a fresh instance of every
// registered engine configured by it, in canonical order. Services
// with non-default policies build their private engine set this way.
func AllWith(pol Policies) ([]Engine, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Engine, 0, len(registry.builders))
	for _, name := range namesLocked() {
		out = append(out, registry.builders[name](pol))
	}
	return out, nil
}
