// Package gen generates Go source code for dynamically stack-cached
// interpreters: the literal implementation of the paper's §4, where
// "there is a copy of the whole interpreter for every cache state".
// Each cache state becomes a labelled interpreter copy; cached stack
// items live in function-local variables (which the Go compiler keeps
// in machine registers); executing an instruction jumps — with a Go
// goto — to the copy for the successor state. This is as close to the
// paper's per-state interpreter replication as Go allows, and unlike
// the cost-model engines it demonstrates the technique's real
// wall-clock effect (see BenchmarkGenDynamic vs BenchmarkFig7*).
//
// The generated interpreter is behaviourally identical to
// internal/interp; the differential tests in internal/gendyn verify
// that on every workload.
package gen

import (
	"bytes"
	"fmt"
	"go/format"

	"stackcache/internal/vm"
)

// DynamicInterp generates the source of a package with a single
// function Run implementing a dynamically stack-cached interpreter
// with nregs cache registers and the given overflow followup state.
func DynamicInterp(pkg string, nregs, overflowTo int) ([]byte, error) {
	if nregs < vm.MaxOut || nregs > 16 {
		return nil, fmt.Errorf("gen: nregs %d out of range [%d,16]", nregs, vm.MaxOut)
	}
	if overflowTo < 1 || overflowTo > nregs {
		return nil, fmt.Errorf("gen: overflowTo %d out of range [1,%d]", overflowTo, nregs)
	}
	g := &generator{n: nregs, f: overflowTo}
	g.file(pkg)
	src, err := format.Source(g.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("gen: generated code does not format: %w\n%s", err, g.buf.Bytes())
	}
	return src, nil
}

type generator struct {
	buf bytes.Buffer
	n   int // cache registers
	f   int // overflow followup state
}

func (g *generator) p(format string, args ...any) {
	fmt.Fprintf(&g.buf, format+"\n", args...)
}

// reg names cache register i.
func reg(i int) string { return fmt.Sprintf("r%d", i) }

func (g *generator) file(pkg string) {
	g.p("// Code generated by cmd/gencache; DO NOT EDIT.")
	g.p("// Dynamic stack caching interpreter: %d registers, overflow followup state %d.", g.n, g.f)
	g.p("")
	g.p("package %s", pkg)
	g.p("")
	g.p("import (")
	g.p("%q", "strconv")
	g.p("")
	g.p("%q", "stackcache/internal/interp")
	g.p("%q", "stackcache/internal/vm")
	g.p(")")
	g.p("")
	g.p("// NRegs and OverflowTo document the generated configuration.")
	g.p("const (")
	g.p("NRegs = %d", g.n)
	g.p("OverflowTo = %d", g.f)
	g.p(")")
	g.p("")
	g.p("func flag(b bool) vm.Cell { if b { return -1 }; return 0 }")
	g.p("")
	g.p("func minCell(a, b vm.Cell) vm.Cell { if a < b { return a }; return b }")
	g.p("")
	g.p("func maxCell(a, b vm.Cell) vm.Cell { if a > b { return a }; return b }")
	g.p("")
	g.p("// Run executes m's program with one interpreter copy per cache")
	g.p("// state. Cached stack items live in the locals r0..r%d.", g.n-1)
	g.fn()
}

// fn emits Run: the full interpreter copy set (all cache states) as
// one function.
func (g *generator) fn() {
	g.p("func Run(m *interp.Machine) error {")
	g.p("code := m.Prog.Code")
	g.p("st := m.Stack")
	g.p("rs := m.RSt")
	g.p("pc := m.PC")
	g.p("sp := m.SP")
	g.p("rp := m.RP")
	g.p("steps := m.Steps")
	g.p("limit := m.MaxSteps")
	g.p("if limit <= 0 { limit = interp.DefaultMaxSteps }")
	g.p("var ins vm.Instr")
	g.p("var errOp vm.Opcode")
	g.p("var errMsg string")
	for i := 0; i < g.n; i++ {
		g.p("var %s vm.Cell", reg(i))
	}
	// All temporaries are function-scoped: block-scoped variables in
	// blocks that are exited with goto miscompile under the Go 1.24
	// optimizer (verified: correct with -gcflags='-N -l', wrong value
	// otherwise), so nothing below declares variables inside the
	// state-switch cases.
	g.p("var t0, t1, t2, t3 vm.Cell")
	g.p("var bv byte")
	g.p("var ok bool")
	g.p("_, _, _, _, _, _ = t0, t1, t2, t3, bv, ok")
	// Silence unused-variable errors for registers only written in
	// some states.
	g.p("_ = %s", reg(g.n-1))
	g.p("goto state0")
	g.p("")

	for c := 0; c <= g.n; c++ {
		g.state(c)
	}
	for c := 0; c <= g.n; c++ {
		g.failLabel(c)
		g.haltLabel(c)
	}
	g.p("}")
	g.p("")
}

// state emits the interpreter copy for cache state c. Dispatch order
// matches the baseline interpreters — pc bounds, step limit, opcode
// validity (the switch default), execution — so malformed programs
// fail with identical error classes on every engine.
func (g *generator) state(c int) {
	g.p("state%d:", c)
	g.p("if pc < 0 || pc >= len(code) { errOp, errMsg = vm.OpNop, interp.MsgPCRange; goto fail%d }", c)
	g.p("if steps >= limit { errOp, errMsg = vm.CanonicalInstr(code[pc]).Op, %q; goto fail%d }", "step limit exceeded", c)
	g.p("ins = code[pc]")
	g.p("steps++")
	g.p("switch ins.Op {")
	for op := vm.Opcode(0); op < vm.NumOpcodes; op++ {
		g.p("case vm.%s:", opConstName(op))
		g.opcode(c, op)
	}
	g.p("default:")
	g.p("errOp, errMsg = ins.Op, %q; goto fail%d", "invalid opcode", c)
	g.p("}")
	g.p("")
}

// opConstName maps an opcode to its Go constant name.
func opConstName(op vm.Opcode) string {
	names := map[vm.Opcode]string{
		vm.OpNop: "OpNop", vm.OpLit: "OpLit", vm.OpAdd: "OpAdd",
		vm.OpSub: "OpSub", vm.OpMul: "OpMul", vm.OpDiv: "OpDiv",
		vm.OpMod: "OpMod", vm.OpNegate: "OpNegate", vm.OpAbs: "OpAbs",
		vm.OpMin: "OpMin", vm.OpMax: "OpMax", vm.OpAnd: "OpAnd",
		vm.OpOr: "OpOr", vm.OpXor: "OpXor", vm.OpInvert: "OpInvert",
		vm.OpLshift: "OpLshift", vm.OpRshift: "OpRshift",
		vm.OpOnePlus: "OpOnePlus", vm.OpOneMinus: "OpOneMinus",
		vm.OpTwoStar: "OpTwoStar", vm.OpTwoSlash: "OpTwoSlash",
		vm.OpCells: "OpCells", vm.OpLitAdd: "OpLitAdd",
		vm.OpEq: "OpEq", vm.OpNe: "OpNe", vm.OpLt: "OpLt",
		vm.OpGt: "OpGt", vm.OpLe: "OpLe", vm.OpGe: "OpGe",
		vm.OpULt: "OpULt", vm.OpZeroEq: "OpZeroEq", vm.OpZeroNe: "OpZeroNe",
		vm.OpZeroLt: "OpZeroLt", vm.OpZeroGt: "OpZeroGt",
		vm.OpDup: "OpDup", vm.OpDrop: "OpDrop", vm.OpSwap: "OpSwap",
		vm.OpOver: "OpOver", vm.OpRot: "OpRot", vm.OpMinusRot: "OpMinusRot",
		vm.OpNip: "OpNip", vm.OpTuck: "OpTuck", vm.OpTwoDup: "OpTwoDup",
		vm.OpTwoDrop: "OpTwoDrop", vm.OpToR: "OpToR", vm.OpRFrom: "OpRFrom",
		vm.OpRFetch: "OpRFetch", vm.OpFetch: "OpFetch", vm.OpStore: "OpStore",
		vm.OpCFetch: "OpCFetch", vm.OpCStore: "OpCStore",
		vm.OpPlusStore: "OpPlusStore", vm.OpBranch: "OpBranch",
		vm.OpBranchZero: "OpBranchZero", vm.OpCall: "OpCall",
		vm.OpExit: "OpExit", vm.OpHalt: "OpHalt", vm.OpDo: "OpDo",
		vm.OpLoop: "OpLoop", vm.OpPlusLoop: "OpPlusLoop", vm.OpI: "OpI",
		vm.OpJ: "OpJ", vm.OpUnloop: "OpUnloop", vm.OpEmit: "OpEmit",
		vm.OpDot: "OpDot", vm.OpType: "OpType", vm.OpDepth: "OpDepth",
		vm.OpQLitFetch:          "OpQLitFetch",
		vm.OpQLitFetchAdd:       "OpQLitFetchAdd",
		vm.OpQLitLitFetchAdd:    "OpQLitLitFetchAdd",
		vm.OpQLitFetchAddCFetch: "OpQLitFetchAddCFetch",
		vm.OpQLitFetchLitGe:     "OpQLitFetchLitGe",
		vm.OpQLitPlusStore:      "OpQLitPlusStore",
		vm.OpQLitLitPlusStore:   "OpQLitLitPlusStore",
		vm.OpQAddCFetch:         "OpQAddCFetch",
		vm.OpQLitEq:             "OpQLitEq",
		vm.OpQDupLitEq:          "OpQDupLitEq",
		vm.OpQSwapLitRshiftSwap: "OpQSwapLitRshiftSwap",
		vm.OpQLitLshiftOverLit:  "OpQLitLshiftOverLit",
	}
	return names[op]
}
