package engine

import (
	"sort"
	"sync"
	"testing"

	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/statcache"
	"stackcache/internal/vm"
)

func compile(t *testing.T, src string) *vm.Program {
	t.Helper()
	p, err := forth.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRegistryCompleteness pins the engine set and its canonical
// order: every variant the repository implements is registered, the
// switch baseline first (the differential tests' reference), the rest
// alphabetical.
func TestRegistryCompleteness(t *testing.T) {
	want := []string{
		"switch",
		"compiled", "dynamic", "gendyn", "rotating", "static",
		"threaded", "token", "traced", "twostacks",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered engines %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered engines %v, want %v", got, want)
		}
	}
}

// TestNamesDeterministic: the canonical order is a function of the
// registered set alone — switch first, everything else sorted — so
// endpoint listings and test sweeps cannot silently reorder when
// registration order changes.
func TestNamesDeterministic(t *testing.T) {
	got := Names()
	if len(got) == 0 || got[0] != "switch" {
		t.Fatalf("Names() = %v, want switch first", got)
	}
	if !sort.StringsAreSorted(got[1:]) {
		t.Fatalf("Names()[1:] not sorted: %v", got[1:])
	}
	again := Names()
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("Names() unstable: %v vs %v", got, again)
		}
	}
}

func TestLookupAndAll(t *testing.T) {
	for _, name := range Names() {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed", name)
		}
		if e.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, e.Name())
		}
		e2, _ := Lookup(name)
		if e2 != e {
			t.Errorf("Lookup(%q) returned distinct instances", name)
		}
	}
	if _, ok := Lookup("jit"); ok {
		t.Error("Lookup of unregistered name succeeded")
	}
	all := All()
	if len(all) != len(Names()) {
		t.Fatalf("All() returned %d engines, registry has %d", len(all), len(Names()))
	}
	for i, name := range Names() {
		if all[i].Name() != name {
			t.Errorf("All()[%d] = %q, want %q", i, all[i].Name(), name)
		}
	}
}

// TestEveryEngineRuns executes one program under every registered
// engine through the uniform interface and checks the observable
// result — the one-interface-fits-all contract itself.
func TestEveryEngineRuns(t *testing.T) {
	p := compile(t, ": main 6 7 * . ;")
	for _, e := range All() {
		m := interp.NewMachine(p)
		if err := e.Run(m); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if got := m.Out.String(); got != "42 " {
			t.Errorf("%s: output %q, want %q", e.Name(), got, "42 ")
		}
	}
}

// TestExecSpecArgsThroughRegistry runs the same program with two arg
// sets under every engine: open program arguments are part of every
// engine's contract, not a per-engine feature.
func TestExecSpecArgsThroughRegistry(t *testing.T) {
	p := compile(t, ": main + . ;")
	cases := []struct {
		args []vm.Cell
		want string
	}{
		{[]vm.Cell{30, 12}, "42 "},
		{[]vm.Cell{-5, 7}, "2 "},
	}
	for _, e := range All() {
		for _, tc := range cases {
			m := interp.NewMachine(p)
			if err := m.ApplySpec(interp.ExecSpec{Args: tc.args}); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(m); err != nil {
				t.Errorf("%s args %v: %v", e.Name(), tc.args, err)
				continue
			}
			if got := m.Out.String(); got != tc.want {
				t.Errorf("%s args %v: output %q, want %q", e.Name(), tc.args, got, tc.want)
			}
			if m.SP != 0 {
				t.Errorf("%s args %v: final depth %d, want 0", e.Name(), tc.args, m.SP)
			}
		}
	}
}

func TestTraits(t *testing.T) {
	for _, e := range All() {
		tr := TraitsOf(e)
		if e.Name() == "static" {
			if tr.Exact || !tr.NeedsVerify {
				t.Errorf("static traits %+v, want inexact+needsVerify", tr)
			}
		} else if !tr.Exact || tr.NeedsVerify {
			t.Errorf("%s traits %+v, want exact", e.Name(), tr)
		}
	}
}

// TestStaticPlanCompiledOnce checks the static engine's compile-once
// contract: concurrent runs of one program share one plan.
func TestStaticPlanCompiledOnce(t *testing.T) {
	p := compile(t, ": main 3 4 * . ;")
	se := &staticEngine{pol: statcache.Policy{NRegs: 6, Canonical: 2}}
	var wg sync.WaitGroup
	plans := make([]*statcache.Plan, 8)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan, err := se.planFor(p)
			if err != nil {
				t.Error(err)
			}
			plans[i] = plan
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(plans); i++ {
		if plans[i] != plans[0] {
			t.Fatal("planFor returned distinct plans for one program")
		}
	}
}

// TestStaticPlanPolicyKeyed: one artifact unit holds one prepared plan
// per policy — two engines with different static policies working the
// same program get distinct plans, while a same-policy engine shares.
// This is what lets per-request policy overrides (engine.AllWith)
// coexist on the shared artifact store without plan collisions.
func TestStaticPlanPolicyKeyed(t *testing.T) {
	p := compile(t, ": main 3 4 * . ;")
	a := &staticEngine{pol: statcache.Policy{NRegs: 6, Canonical: 2}}
	b := &staticEngine{pol: statcache.Policy{NRegs: 4, Canonical: 1}}
	c := &staticEngine{pol: statcache.Policy{NRegs: 6, Canonical: 2}}
	planA, err := a.planFor(p)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := b.planFor(p)
	if err != nil {
		t.Fatal(err)
	}
	planC, err := c.planFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if planA == planB {
		t.Fatal("distinct policies shared one prepared plan")
	}
	if planA != planC {
		t.Fatal("identical policies built distinct plans for one program")
	}
}

// TestAllWithValidates: a broken policy is rejected up front, not at
// first execution.
func TestAllWithValidates(t *testing.T) {
	pol := DefaultPolicies()
	pol.Dynamic.NRegs = -1
	if _, err := AllWith(pol); err == nil {
		t.Error("AllWith accepted an invalid policy")
	}
	engines, err := AllWith(DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != len(Names()) {
		t.Fatalf("AllWith built %d engines, registry has %d", len(engines), len(Names()))
	}
}

// TestTracedVisitsEveryInstruction: the tracer is an engine like any
// other, and its visitor sees each executed instruction.
func TestTracedVisitsEveryInstruction(t *testing.T) {
	p := compile(t, ": main 1 2 + drop ;")
	var visits int64
	e := Traced(func(int, vm.Instr) { visits++ })
	m := interp.NewMachine(p)
	if err := e.Run(m); err != nil {
		t.Fatal(err)
	}
	if visits != m.Steps {
		t.Errorf("visited %d instructions, machine executed %d", visits, m.Steps)
	}
}
