package compiled

import (
	"math/rand"
	"testing"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// straightLineOps is every opcode a basic block can hold before its
// terminator: valid, not control, not a superinstruction (Compile
// unquickens first).
func straightLineOps() []vm.Opcode {
	var ops []vm.Opcode
	for op := vm.Opcode(0); op < vm.NumOpcodes; op++ {
		if !vm.EffectOf(op).Control && !vm.IsSuper(op) {
			ops = append(ops, op)
		}
	}
	return ops
}

// blockMachine builds a machine that enters the straight-line block
// code (followed by a halt) with sp cells on a data stack of capacity
// stCap, rp cells on a return stack of capacity rsCap, and budget
// steps left before the step limit.
func blockMachine(r *rand.Rand, code []vm.Instr, stCap, sp, rsCap, rp int, budget int64) *interp.Machine {
	p := &vm.Program{Code: append(append([]vm.Instr(nil), code...), vm.Instr{Op: vm.OpHalt}), MemSize: 64}
	m := interp.NewMachine(p)
	m.Stack, m.RSt = make([]vm.Cell, stCap), make([]vm.Cell, rsCap)
	for i := 0; i < sp; i++ {
		m.Stack[i] = vm.Cell(r.Intn(80) - 8)
	}
	for i := 0; i < rp; i++ {
		m.RSt[i] = vm.Cell(r.Intn(80) - 8)
	}
	m.SP, m.RP = sp, rp
	m.Steps = 100
	m.MaxSteps = m.Steps + budget
	return m
}

// TestPrecheckPinsBaselineErrors pins the premise that keeps the
// hand-off to the switch baseline cold. Over seeded random
// straight-line blocks, entered with small stacks and a remaining step
// budget in [0, k+1] for a k-instruction block:
//
//   - when the block's blockNeeds/budget precheck fails, the baseline
//     itself errors before pc leaves the block, so handing the run off
//     costs one block of switch dispatch;
//   - when the precheck passes, the baseline raises no stack-depth or
//     step-limit error inside the block, so the fused code, which has
//     no such checks, is exact.
//
// Each case also runs the compiled artifact from the same state and
// requires the baseline's error, stacks, output and step count.
func TestPrecheckPinsBaselineErrors(t *testing.T) {
	ops := straightLineOps()
	r := rand.New(rand.NewSource(1))
	depthOrBudget := map[string]bool{
		"stack underflow":        true,
		"stack overflow":         true,
		"return stack underflow": true,
		"return stack overflow":  true,
		interp.MsgStepLimit:      true,
	}
	var passed, failed int
	for iter := 0; iter < 10000; iter++ {
		k := 1 + r.Intn(8)
		code := make([]vm.Instr, k)
		for i := range code {
			code[i] = vm.Instr{Op: ops[r.Intn(len(ops))], Arg: vm.Cell(r.Intn(80) - 8)}
		}
		stCap, rsCap := 1+r.Intn(8), 1+r.Intn(6)
		sp, rp := r.Intn(stCap+1), r.Intn(rsCap+1)
		budget := int64(r.Intn(k + 2))
		seed := r.Int63()

		needLow, hi, rneedLow, rhi := blockNeeds(code)
		pass := budget >= int64(k) &&
			sp >= needLow && sp+hi <= stCap &&
			rp >= rneedLow && rp+rhi <= rsCap

		m := blockMachine(rand.New(rand.NewSource(seed)), code, stCap, sp, rsCap, rp, budget)
		err := interp.RunSwitch(m)
		var inBlock *interp.RuntimeError
		if re, ok := err.(*interp.RuntimeError); ok && re.PC < k {
			inBlock = re
		} else if err != nil && !ok {
			t.Fatalf("case %d %v: baseline error %v (%T) is not a RuntimeError", iter, code, err, err)
		}
		switch {
		case !pass && inBlock == nil:
			t.Fatalf("case %d %v sp=%d/%d rp=%d/%d budget=%d: precheck failed but the baseline left the block (err %v)",
				iter, code, sp, stCap, rp, rsCap, budget, err)
		case pass && inBlock != nil && depthOrBudget[inBlock.Msg]:
			t.Fatalf("case %d %v sp=%d/%d rp=%d/%d budget=%d: precheck passed but the baseline raised %q at pc %d",
				iter, code, sp, stCap, rp, rsCap, budget, inBlock.Msg, inBlock.PC)
		}
		if pass {
			passed++
		} else {
			failed++
		}

		a, cerr := Compile(m.Prog, nil)
		if cerr != nil {
			t.Fatal(cerr)
		}
		c := blockMachine(rand.New(rand.NewSource(seed)), code, stCap, sp, rsCap, rp, budget)
		gotErr := a.Run(c)
		if (err == nil) != (gotErr == nil) || (err != nil && err.Error() != gotErr.Error()) {
			t.Fatalf("case %d %v: compiled error %v, switch %v", iter, code, gotErr, err)
		}
		if want, got := m.Snapshot(), c.Snapshot(); !want.Equal(got) || want.Steps != got.Steps ||
			m.SP != c.SP || m.RP != c.RP || m.PC != c.PC {
			t.Fatalf("case %d %v: compiled state diverges from switch\nswitch:   %+v pc=%d\ncompiled: %+v pc=%d",
				iter, code, want, m.PC, got, c.PC)
		}
	}
	t.Logf("%d passing and %d failing prechecks", passed, failed)
	// Both sides of the premise must be exercised in bulk, or the
	// generator has drifted away from the cases that matter.
	if passed < 1000 || failed < 1000 {
		t.Fatalf("unbalanced corpus: %d passing and %d failing prechecks", passed, failed)
	}
}
