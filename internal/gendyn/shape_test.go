package gendyn

// The tests in this file depend on the generated configuration only
// through NRegs, so internal/gen also runs them against a second
// shape (4 registers, overflow followup 3) built on the fly; keep
// them shape-agnostic.

import (
	"testing"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// TestMatchesBaselineOnAllWorkloads compares the generated interpreter
// with the switch baseline on every workload; the full-size ones drive
// the overflow spill transitions the micros never reach.
func TestMatchesBaselineOnAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.MustCompile()
		ref, err := interp.Run(p, interp.EngineSwitch)
		if err != nil {
			t.Fatalf("%s baseline: %v", w.Name, err)
		}
		m := interp.NewMachine(p)
		if err := Run(m); err != nil {
			t.Fatalf("%s gendyn: %v", w.Name, err)
		}
		if !ref.Snapshot().Equal(m.Snapshot()) {
			t.Errorf("%s: generated interpreter disagrees with baseline\nwant %q\ngot  %q",
				w.Name, ref.Out.String(), m.Out.String())
		}
	}
}

// TestExhaustiveStateOpcode runs every non-control opcode from every
// initial stack depth 0..NRegs+2, so that every (cache state, opcode)
// case of the generated interpreter executes at least once, including
// the overflow and underflow paths, and compares against the baseline.
// This guards the generator — and the compiler's treatment of the
// giant goto function — per case.
func TestExhaustiveStateOpcode(t *testing.T) {
	skip := map[vm.Opcode]bool{
		vm.OpBranch: true, vm.OpBranchZero: true, vm.OpCall: true,
		vm.OpExit: true, vm.OpHalt: true, vm.OpLoop: true, vm.OpPlusLoop: true,
	}
	for op := vm.Opcode(0); op < vm.NumOpcodes; op++ {
		if skip[op] {
			continue
		}
		eff := vm.EffectOf(op)
		for d := 0; d <= NRegs+2; d++ {
			if d < eff.In {
				continue // would be a stack-underflow error; tested elsewhere
			}
			b := vm.NewBuilder()
			b.Alloc(64) // valid memory for @/!/c@/c!/+!/type at address 8
			for i := 0; i < d; i++ {
				b.Lit(8)
			}
			for i := 0; i < eff.RIn; i++ {
				b.Lit(8)
				b.Emit(vm.OpToR)
			}
			arg := vm.Cell(0)
			if eff.Arg == vm.ArgValue {
				arg = 5
			}
			b.EmitArg(op, arg)
			for i := 0; i < eff.ROut; i++ {
				b.Emit(vm.OpRFrom)
			}
			b.Emit(vm.OpHalt)
			p, err := b.Build()
			if err != nil {
				t.Fatalf("%v d=%d: %v", op, d, err)
			}
			ref, refErr := interp.Run(p, interp.EngineSwitch)
			m := interp.NewMachine(p)
			genErr := Run(m)
			if (refErr == nil) != (genErr == nil) {
				t.Errorf("%v d=%d: error disagreement: baseline %v, generated %v",
					op, d, refErr, genErr)
				continue
			}
			if refErr == nil && !ref.Snapshot().Equal(m.Snapshot()) {
				t.Errorf("%v d=%d: state mismatch\nwant stack %v\ngot  stack %v",
					op, d, ref.Snapshot().Stack, m.Snapshot().Stack)
			}
		}
	}
}
