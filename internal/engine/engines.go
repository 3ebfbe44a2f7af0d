package engine

// The repository's engine set. Each variant is one Register call;
// Names()/All() order is canonical (switch baseline first, rest
// alphabetical) regardless of registration order here.

import (
	"fmt"

	"stackcache/internal/artifact"
	"stackcache/internal/compiled"
	"stackcache/internal/core"
	"stackcache/internal/dyncache"
	"stackcache/internal/gendyn"
	"stackcache/internal/interp"
	"stackcache/internal/statcache"
	"stackcache/internal/vm"
)

func init() {
	Register("switch", func(Policies) Engine { return &runFunc{"switch", interp.RunSwitch} })
	Register("compiled", func(Policies) Engine { return &compiledEngine{} })
	Register("token", func(Policies) Engine { return &runFunc{"token", interp.RunToken} })
	Register("threaded", func(Policies) Engine { return &runFunc{"threaded", interp.RunThreaded} })
	Register("traced", func(Policies) Engine { return Traced(nil) })
	Register("dynamic", func(p Policies) Engine { return dynamicEngine{p.Dynamic} })
	Register("rotating", func(p Policies) Engine { return rotatingEngine{p.Rotating} })
	Register("twostacks", func(p Policies) Engine { return twoStacksEngine{p.TwoStacks} })
	Register("static", func(p Policies) Engine { return &staticEngine{pol: p.Static} })
	Register("gendyn", func(Policies) Engine { return &runFunc{"gendyn", gendyn.Run} })
}

// runFunc adapts a plain run function (the baseline interpreters and
// the generated per-state interpreters, whose policies are baked in at
// generation time).
type runFunc struct {
	name string
	run  func(*interp.Machine) error
}

func (r *runFunc) Name() string { return r.name }

func (r *runFunc) Run(m *interp.Machine) error {
	attachFacts(m)
	return r.run(m)
}

// tracedEngine is the token interpreter with a per-instruction visit
// hook — the trace-capture engine behind internal/constcache and
// internal/trace, available through the registry like any other
// engine.
type tracedEngine struct {
	visit func(pc int, ins vm.Instr)
}

// Traced returns a tracing engine invoking visit before each executed
// instruction. The registered "traced" engine uses a nil visitor —
// pure dispatch-hook overhead — so it can serve requests; analysis
// callers build their own with a real visitor.
func Traced(visit func(pc int, ins vm.Instr)) Engine {
	return &tracedEngine{visit: visit}
}

func (t *tracedEngine) Name() string { return "traced" }

func (t *tracedEngine) Run(m *interp.Machine) error {
	attachFacts(m)
	return interp.RunTracedOn(m, t.visit)
}

// dynamicEngine is dynamic stack caching, minimal organization.
type dynamicEngine struct{ pol core.MinimalPolicy }

func (e dynamicEngine) Name() string { return "dynamic" }

func (e dynamicEngine) Run(m *interp.Machine) error {
	attachFacts(m)
	_, err := dyncache.RunOn(m, e.pol)
	return err
}

func (e dynamicEngine) RunCounted(m *interp.Machine) (core.Counters, error) {
	attachFacts(m)
	res, err := dyncache.RunOn(m, e.pol)
	if res == nil {
		return core.Counters{}, err
	}
	return res.Counters, err
}

// rotatingEngine is dynamic stack caching with the rotating register
// file.
type rotatingEngine struct{ pol core.RotatingPolicy }

func (e rotatingEngine) Name() string { return "rotating" }

func (e rotatingEngine) Run(m *interp.Machine) error {
	attachFacts(m)
	_, err := dyncache.RunRotatingOn(m, e.pol)
	return err
}

func (e rotatingEngine) RunCounted(m *interp.Machine) (core.Counters, error) {
	attachFacts(m)
	res, err := dyncache.RunRotatingOn(m, e.pol)
	if res == nil {
		return core.Counters{}, err
	}
	return res.Counters, err
}

// twoStacksEngine is dynamic stack caching with both stacks sharing
// the register file.
type twoStacksEngine struct{ pol dyncache.TwoStackPolicy }

func (e twoStacksEngine) Name() string { return "twostacks" }

func (e twoStacksEngine) Run(m *interp.Machine) error {
	attachFacts(m)
	_, err := dyncache.RunTwoStacksOn(m, e.pol)
	return err
}

func (e twoStacksEngine) RunCounted(m *interp.Machine) (core.Counters, error) {
	attachFacts(m)
	res, err := dyncache.RunTwoStacksOn(m, e.pol)
	if res == nil {
		return core.Counters{}, err
	}
	return res.Counters, err
}

// staticEngine is static stack caching: per-program compile-once plans
// executed on an explicit register file. Plans live on the program's
// artifact unit, keyed by the engine's full policy fingerprint, so two
// engine instances with the same policy share one plan and two
// policies on one program get distinct plans (the per-request policy
// override path, engine.AllWith, is finally cache-correct).
type staticEngine struct {
	pol statcache.Policy
}

// prepKey is the policy fingerprint the plan is filed under on a unit.
// Every Policy field participates: a plan is a pure function of
// (program, policy), and the key must say so structurally.
func (e *staticEngine) prepKey() string {
	return fmt.Sprintf("static|nregs=%d|canon=%d|manips=%t|pts=%t",
		e.pol.NRegs, e.pol.Canonical, e.pol.KeepManips, e.pol.PerTargetStates)
}

// planOn returns the unit's compile-once plan for this policy,
// compiling it at most once even under concurrent callers.
func (e *staticEngine) planOn(u *artifact.Unit) (*statcache.Plan, error) {
	v, err := u.Prepared(e.prepKey(), func() (any, error) {
		return statcache.Compile(u.Prog, e.pol)
	})
	if err != nil {
		return nil, err
	}
	return v.(*statcache.Plan), nil
}

// planFor resolves p to its artifact unit (store-published or interned
// on first sight) and returns the plan.
func (e *staticEngine) planFor(p *vm.Program) (*statcache.Plan, error) {
	return e.planOn(artifact.Of(p))
}

func (e *staticEngine) Name() string { return "static" }

// Prepare compiles (or finds) the unit's plan, so services can
// front-load compile failures before queueing the execution.
func (e *staticEngine) Prepare(u *artifact.Unit) error {
	_, err := e.planOn(u)
	return err
}

func (e *staticEngine) Run(m *interp.Machine) error {
	attachFacts(m)
	plan, err := e.planFor(m.Prog)
	if err != nil {
		return err
	}
	_, err = statcache.ExecuteOn(m, plan)
	return err
}

func (e *staticEngine) RunCounted(m *interp.Machine) (core.Counters, error) {
	attachFacts(m)
	plan, err := e.planFor(m.Prog)
	if err != nil {
		return core.Counters{}, err
	}
	res, err := statcache.ExecuteOn(m, plan)
	if res == nil {
		return core.Counters{}, err
	}
	return res.Counters, err
}

// Traits: the static engine's guard zone turns some underflows into
// reads of zero, and its compiler requires verified input.
func (e *staticEngine) Traits() Traits {
	return Traits{Exact: false, NeedsVerify: true}
}

// compiledEngine is the AOT closure compiler: per-program artifacts of
// fused continuation-threaded closures (internal/compiled), filed on
// the program's artifact unit so every engine instance shares one
// compile. The blob is compiled against the unit's analysis facts, so
// proved programs carry a check-elided code variant selected at run
// time by the standard ElideChecks gate.
type compiledEngine struct{}

// artifactOn returns the unit's compile-once AOT artifact, compiling
// at most once even under concurrent callers. The closure compiler
// takes no policy, so the key is the bare engine name.
func (e *compiledEngine) artifactOn(u *artifact.Unit) (*compiled.Artifact, error) {
	v, err := u.Prepared("compiled", func() (any, error) {
		return compiled.Compile(u.Prog, u.Facts())
	})
	if err != nil {
		return nil, err
	}
	return v.(*compiled.Artifact), nil
}

func (e *compiledEngine) artifactFor(p *vm.Program) (*compiled.Artifact, error) {
	return e.artifactOn(artifact.Of(p))
}

func (e *compiledEngine) Name() string { return "compiled" }

// Prepare compiles (or finds) the unit's artifact, so services can
// front-load compile failures before queueing the execution.
func (e *compiledEngine) Prepare(u *artifact.Unit) error {
	_, err := e.artifactOn(u)
	return err
}

func (e *compiledEngine) Run(m *interp.Machine) error {
	attachFacts(m)
	art, err := e.artifactFor(m.Prog)
	if err != nil {
		return err
	}
	return art.Run(m)
}
