// Code generated by cmd/gencache; DO NOT EDIT.
// Dynamic stack caching interpreter: 6 registers, overflow followup state 5.

package gendyn

import (
	"strconv"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// NRegs and OverflowTo document the generated configuration.
const (
	NRegs      = 6
	OverflowTo = 5
)

func flag(b bool) vm.Cell {
	if b {
		return -1
	}
	return 0
}

func minCell(a, b vm.Cell) vm.Cell {
	if a < b {
		return a
	}
	return b
}

func maxCell(a, b vm.Cell) vm.Cell {
	if a > b {
		return a
	}
	return b
}

// Run executes m's program with one interpreter copy per cache
// state. Cached stack items live in the locals r0..r5.
func Run(m *interp.Machine) error {
	code := m.Prog.Code
	st := m.Stack
	rs := m.RSt
	pc := m.PC
	sp := m.SP
	rp := m.RP
	steps := m.Steps
	limit := m.MaxSteps
	if limit <= 0 {
		limit = interp.DefaultMaxSteps
	}
	var ins vm.Instr
	var errOp vm.Opcode
	var errMsg string
	var r0 vm.Cell
	var r1 vm.Cell
	var r2 vm.Cell
	var r3 vm.Cell
	var r4 vm.Cell
	var r5 vm.Cell
	var t0, t1, t2, t3 vm.Cell
	var bv byte
	var ok bool
	_, _, _, _, _, _ = t0, t1, t2, t3, bv, ok
	_ = r5
	goto state0

state0:
	if pc < 0 || pc >= len(code) {
		errOp, errMsg = vm.OpNop, interp.MsgPCRange
		goto fail0
	}
	if steps >= limit {
		errOp, errMsg = vm.CanonicalInstr(code[pc]).Op, "step limit exceeded"
		goto fail0
	}
	ins = code[pc]
	steps++
	switch ins.Op {
	case vm.OpNop:
		pc++
		goto state0
	case vm.OpLit:
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpAdd:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = st[sp+0] + st[sp+1]
		pc++
		goto state1
	case vm.OpSub:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = st[sp+0] - st[sp+1]
		pc++
		goto state1
	case vm.OpMul:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = st[sp+0] * st[sp+1]
		pc++
		goto state1
	case vm.OpDiv:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		if st[sp+1] == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail0
		}
		r0 = interp.FloorDiv(st[sp+0], st[sp+1])
		pc++
		goto state1
	case vm.OpMod:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		if st[sp+1] == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail0
		}
		r0 = interp.FloorMod(st[sp+0], st[sp+1])
		pc++
		goto state1
	case vm.OpNegate:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = -st[sp]
		pc++
		goto state1
	case vm.OpAbs:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp]
		if r0 < 0 {
			r0 = -r0
		}
		pc++
		goto state1
	case vm.OpMin:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = minCell(st[sp+0], st[sp+1])
		pc++
		goto state1
	case vm.OpMax:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = maxCell(st[sp+0], st[sp+1])
		pc++
		goto state1
	case vm.OpAnd:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = st[sp+0] & st[sp+1]
		pc++
		goto state1
	case vm.OpOr:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = st[sp+0] | st[sp+1]
		pc++
		goto state1
	case vm.OpXor:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = st[sp+0] ^ st[sp+1]
		pc++
		goto state1
	case vm.OpInvert:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = ^st[sp]
		pc++
		goto state1
	case vm.OpLshift:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = interp.ShiftLeft(st[sp+0], st[sp+1])
		pc++
		goto state1
	case vm.OpRshift:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = interp.ShiftRight(st[sp+0], st[sp+1])
		pc++
		goto state1
	case vm.OpOnePlus:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp] + 1
		pc++
		goto state1
	case vm.OpOneMinus:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp] - 1
		pc++
		goto state1
	case vm.OpTwoStar:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp] << 1
		pc++
		goto state1
	case vm.OpTwoSlash:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp] >> 1
		pc++
		goto state1
	case vm.OpCells:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp] * vm.CellSize
		pc++
		goto state1
	case vm.OpLitAdd:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp] + ins.Arg
		pc++
		goto state1
	case vm.OpEq:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = flag(st[sp+0] == st[sp+1])
		pc++
		goto state1
	case vm.OpNe:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = flag(st[sp+0] != st[sp+1])
		pc++
		goto state1
	case vm.OpLt:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = flag(st[sp+0] < st[sp+1])
		pc++
		goto state1
	case vm.OpGt:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = flag(st[sp+0] > st[sp+1])
		pc++
		goto state1
	case vm.OpLe:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = flag(st[sp+0] <= st[sp+1])
		pc++
		goto state1
	case vm.OpGe:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = flag(st[sp+0] >= st[sp+1])
		pc++
		goto state1
	case vm.OpULt:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = flag(uint64(st[sp+0]) < uint64(st[sp+1]))
		pc++
		goto state1
	case vm.OpZeroEq:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = flag(st[sp] == 0)
		pc++
		goto state1
	case vm.OpZeroNe:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = flag(st[sp] != 0)
		pc++
		goto state1
	case vm.OpZeroLt:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = flag(st[sp] < 0)
		pc++
		goto state1
	case vm.OpZeroGt:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = flag(st[sp] > 0)
		pc++
		goto state1
	case vm.OpDup:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 1
		t0 = st[sp+0]
		r0 = t0
		r1 = t0
		pc++
		goto state2
	case vm.OpDrop:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 1
		pc++
		goto state0
	case vm.OpSwap:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		t0 = st[sp+0]
		t1 = st[sp+1]
		r0 = t1
		r1 = t0
		pc++
		goto state2
	case vm.OpOver:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		t0 = st[sp+0]
		t1 = st[sp+1]
		r0 = t0
		r1 = t1
		r2 = t0
		pc++
		goto state3
	case vm.OpRot:
		if sp < 3 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 3
		t0 = st[sp+0]
		t1 = st[sp+1]
		t2 = st[sp+2]
		r0 = t1
		r1 = t2
		r2 = t0
		pc++
		goto state3
	case vm.OpMinusRot:
		if sp < 3 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 3
		t0 = st[sp+0]
		t1 = st[sp+1]
		t2 = st[sp+2]
		r0 = t2
		r1 = t0
		r2 = t1
		pc++
		goto state3
	case vm.OpNip:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		t1 = st[sp+1]
		r0 = t1
		pc++
		goto state1
	case vm.OpTuck:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		t0 = st[sp+0]
		t1 = st[sp+1]
		r0 = t1
		r1 = t0
		r2 = t1
		pc++
		goto state3
	case vm.OpTwoDup:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		t0 = st[sp+0]
		t1 = st[sp+1]
		r0 = t0
		r1 = t1
		r2 = t0
		r3 = t1
		pc++
		goto state4
	case vm.OpTwoDrop:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		pc++
		goto state0
	case vm.OpToR:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 1
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail0
		}
		rs[rp] = st[sp+0]
		rp++
		pc++
		goto state0
	case vm.OpRFrom:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		rp--
		r0 = rs[rp]
		pc++
		goto state1
	case vm.OpRFetch:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		r0 = rs[rp-1]
		pc++
		goto state1
	case vm.OpFetch:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp]
		t0, ok = m.CellAt(r0)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		r0 = t0
		pc++
		goto state1
	case vm.OpStore:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		if !m.SetCellAt(st[sp+1], st[sp+0]) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpCFetch:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp--
		r0 = st[sp]
		bv, ok = m.ByteAt(r0)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		r0 = vm.Cell(bv)
		pc++
		goto state1
	case vm.OpCStore:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		if !m.SetByteAt(st[sp+1], st[sp+0]) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpPlusStore:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		t0, ok = m.CellAt(st[sp+1])
		if !ok || !m.SetCellAt(st[sp+1], t0+st[sp+0]) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpBranch:
		pc = int(ins.Arg)
		goto state0
	case vm.OpBranchZero:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 1
		if st[sp+0] == 0 {
			pc = int(ins.Arg)
		} else {
			pc++
		}
		goto state0
	case vm.OpCall:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail0
		}
		rs[rp] = vm.Cell(pc + 1)
		rp++
		pc = int(ins.Arg)
		goto state0
	case vm.OpExit:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		rp--
		pc = int(rs[rp])
		goto state0
	case vm.OpHalt:
		goto halt0
	case vm.OpDo:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		if rp+2 > len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail0
		}
		rs[rp] = st[sp+0]
		rs[rp+1] = st[sp+1]
		rp += 2
		pc++
		goto state0
	case vm.OpLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		rs[rp-1]++
		if rs[rp-1] == rs[rp-2] {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state0
	case vm.OpPlusLoop:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 1
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		t0 = rs[rp-1] - rs[rp-2]
		rs[rp-1] += st[sp+0]
		t1 = rs[rp-1] - rs[rp-2]
		if (t0 < 0) != (t1 < 0) {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state0
	case vm.OpI:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		r0 = rs[rp-1]
		pc++
		goto state1
	case vm.OpJ:
		if rp < 3 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		r0 = rs[rp-3]
		pc++
		goto state1
	case vm.OpUnloop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		rp -= 2
		pc++
		goto state0
	case vm.OpEmit:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 1
		m.Out.WriteByte(byte(st[sp+0]))
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail0
		}
		pc++
		goto state0
	case vm.OpDot:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 1
		m.Out.WriteString(strconv.FormatInt(st[sp+0], 10))
		m.Out.WriteByte(' ')
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail0
		}
		pc++
		goto state0
	case vm.OpType:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		if !m.RangeOK(st[sp+0], st[sp+1]) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		m.Out.Write(m.Mem[st[sp+0] : st[sp+0]+st[sp+1]])
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail0
		}
		pc++
		goto state0
	case vm.OpDepth:
		r0 = vm.Cell(sp + 0)
		pc++
		goto state1
	case vm.OpQLitFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r0 = t0
				steps += 1
				pc += 2
				goto state1
			}
		}
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpQLitFetchAdd:
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpQLitLitFetchAdd:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpFetch && code[pc+3].Op == vm.OpAdd {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				r0 = ins.Arg + t0
				steps += 3
				pc += 4
				goto state1
			}
		}
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpQLitFetchAddCFetch:
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpQLitFetchLitGe:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpLit && code[pc+3].Op == vm.OpGe {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r0 = flag(t0 >= code[pc+2].Arg)
				steps += 3
				pc += 4
				goto state1
			}
		}
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpQLitPlusStore:
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpQLitLitPlusStore:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				m.SetCellAt(code[pc+1].Arg, t0+ins.Arg)
				steps += 2
				pc += 3
				goto state0
			}
		}
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpQAddCFetch:
		ins.Op = vm.OpAdd
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		r0 = st[sp+0] + st[sp+1]
		pc++
		goto state1
	case vm.OpQLitEq:
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	case vm.OpQDupLitEq:
		ins.Op = vm.OpDup
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 1
		t0 = st[sp+0]
		r0 = t0
		r1 = t0
		pc++
		goto state2
	case vm.OpQSwapLitRshiftSwap:
		ins.Op = vm.OpSwap
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail0
		}
		sp -= 2
		t0 = st[sp+0]
		t1 = st[sp+1]
		r0 = t1
		r1 = t0
		pc++
		goto state2
	case vm.OpQLitLshiftOverLit:
		ins.Op = vm.OpLit
		r0 = ins.Arg
		pc++
		goto state1
	default:
		errOp, errMsg = ins.Op, "invalid opcode"
		goto fail0
	}

state1:
	if pc < 0 || pc >= len(code) {
		errOp, errMsg = vm.OpNop, interp.MsgPCRange
		goto fail1
	}
	if steps >= limit {
		errOp, errMsg = vm.CanonicalInstr(code[pc]).Op, "step limit exceeded"
		goto fail1
	}
	ins = code[pc]
	steps++
	switch ins.Op {
	case vm.OpNop:
		pc++
		goto state1
	case vm.OpLit:
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpAdd:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = st[sp+0] + r0
		pc++
		goto state1
	case vm.OpSub:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = st[sp+0] - r0
		pc++
		goto state1
	case vm.OpMul:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = st[sp+0] * r0
		pc++
		goto state1
	case vm.OpDiv:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		if r0 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail0
		}
		r0 = interp.FloorDiv(st[sp+0], r0)
		pc++
		goto state1
	case vm.OpMod:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		if r0 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail0
		}
		r0 = interp.FloorMod(st[sp+0], r0)
		pc++
		goto state1
	case vm.OpNegate:
		r0 = -r0
		pc++
		goto state1
	case vm.OpAbs:
		if r0 < 0 {
			r0 = -r0
		}
		pc++
		goto state1
	case vm.OpMin:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = minCell(st[sp+0], r0)
		pc++
		goto state1
	case vm.OpMax:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = maxCell(st[sp+0], r0)
		pc++
		goto state1
	case vm.OpAnd:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = st[sp+0] & r0
		pc++
		goto state1
	case vm.OpOr:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = st[sp+0] | r0
		pc++
		goto state1
	case vm.OpXor:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = st[sp+0] ^ r0
		pc++
		goto state1
	case vm.OpInvert:
		r0 = ^r0
		pc++
		goto state1
	case vm.OpLshift:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = interp.ShiftLeft(st[sp+0], r0)
		pc++
		goto state1
	case vm.OpRshift:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = interp.ShiftRight(st[sp+0], r0)
		pc++
		goto state1
	case vm.OpOnePlus:
		r0 = r0 + 1
		pc++
		goto state1
	case vm.OpOneMinus:
		r0 = r0 - 1
		pc++
		goto state1
	case vm.OpTwoStar:
		r0 = r0 << 1
		pc++
		goto state1
	case vm.OpTwoSlash:
		r0 = r0 >> 1
		pc++
		goto state1
	case vm.OpCells:
		r0 = r0 * vm.CellSize
		pc++
		goto state1
	case vm.OpLitAdd:
		r0 = r0 + ins.Arg
		pc++
		goto state1
	case vm.OpEq:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = flag(st[sp+0] == r0)
		pc++
		goto state1
	case vm.OpNe:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = flag(st[sp+0] != r0)
		pc++
		goto state1
	case vm.OpLt:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = flag(st[sp+0] < r0)
		pc++
		goto state1
	case vm.OpGt:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = flag(st[sp+0] > r0)
		pc++
		goto state1
	case vm.OpLe:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = flag(st[sp+0] <= r0)
		pc++
		goto state1
	case vm.OpGe:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = flag(st[sp+0] >= r0)
		pc++
		goto state1
	case vm.OpULt:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = flag(uint64(st[sp+0]) < uint64(r0))
		pc++
		goto state1
	case vm.OpZeroEq:
		r0 = flag(r0 == 0)
		pc++
		goto state1
	case vm.OpZeroNe:
		r0 = flag(r0 != 0)
		pc++
		goto state1
	case vm.OpZeroLt:
		r0 = flag(r0 < 0)
		pc++
		goto state1
	case vm.OpZeroGt:
		r0 = flag(r0 > 0)
		pc++
		goto state1
	case vm.OpDup:
		t0 = r0
		r0 = t0
		r1 = t0
		pc++
		goto state2
	case vm.OpDrop:
		pc++
		goto state0
	case vm.OpSwap:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		t0 = st[sp+0]
		t1 = r0
		r0 = t1
		r1 = t0
		pc++
		goto state2
	case vm.OpOver:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		t0 = st[sp+0]
		t1 = r0
		r0 = t0
		r1 = t1
		r2 = t0
		pc++
		goto state3
	case vm.OpRot:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 2
		t0 = st[sp+0]
		t1 = st[sp+1]
		t2 = r0
		r0 = t1
		r1 = t2
		r2 = t0
		pc++
		goto state3
	case vm.OpMinusRot:
		if sp < 2 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 2
		t0 = st[sp+0]
		t1 = st[sp+1]
		t2 = r0
		r0 = t2
		r1 = t0
		r2 = t1
		pc++
		goto state3
	case vm.OpNip:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		t1 = r0
		r0 = t1
		pc++
		goto state1
	case vm.OpTuck:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		t0 = st[sp+0]
		t1 = r0
		r0 = t1
		r1 = t0
		r2 = t1
		pc++
		goto state3
	case vm.OpTwoDup:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		t0 = st[sp+0]
		t1 = r0
		r0 = t0
		r1 = t1
		r2 = t0
		r3 = t1
		pc++
		goto state4
	case vm.OpTwoDrop:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		pc++
		goto state0
	case vm.OpToR:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail0
		}
		rs[rp] = r0
		rp++
		pc++
		goto state0
	case vm.OpRFrom:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail1
		}
		rp--
		r1 = rs[rp]
		pc++
		goto state2
	case vm.OpRFetch:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail1
		}
		r1 = rs[rp-1]
		pc++
		goto state2
	case vm.OpFetch:
		t0, ok = m.CellAt(r0)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail1
		}
		r0 = t0
		pc++
		goto state1
	case vm.OpStore:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		if !m.SetCellAt(r0, st[sp+0]) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpCFetch:
		bv, ok = m.ByteAt(r0)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail1
		}
		r0 = vm.Cell(bv)
		pc++
		goto state1
	case vm.OpCStore:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		if !m.SetByteAt(r0, st[sp+0]) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpPlusStore:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		t0, ok = m.CellAt(r0)
		if !ok || !m.SetCellAt(r0, t0+st[sp+0]) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpBranch:
		pc = int(ins.Arg)
		goto state1
	case vm.OpBranchZero:
		if r0 == 0 {
			pc = int(ins.Arg)
		} else {
			pc++
		}
		goto state0
	case vm.OpCall:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail1
		}
		rs[rp] = vm.Cell(pc + 1)
		rp++
		pc = int(ins.Arg)
		goto state1
	case vm.OpExit:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail1
		}
		rp--
		pc = int(rs[rp])
		goto state1
	case vm.OpHalt:
		goto halt1
	case vm.OpDo:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		if rp+2 > len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail0
		}
		rs[rp] = st[sp+0]
		rs[rp+1] = r0
		rp += 2
		pc++
		goto state0
	case vm.OpLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail1
		}
		rs[rp-1]++
		if rs[rp-1] == rs[rp-2] {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state1
	case vm.OpPlusLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail0
		}
		t0 = rs[rp-1] - rs[rp-2]
		rs[rp-1] += r0
		t1 = rs[rp-1] - rs[rp-2]
		if (t0 < 0) != (t1 < 0) {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state0
	case vm.OpI:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail1
		}
		r1 = rs[rp-1]
		pc++
		goto state2
	case vm.OpJ:
		if rp < 3 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail1
		}
		r1 = rs[rp-3]
		pc++
		goto state2
	case vm.OpUnloop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail1
		}
		rp -= 2
		pc++
		goto state1
	case vm.OpEmit:
		m.Out.WriteByte(byte(r0))
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail0
		}
		pc++
		goto state0
	case vm.OpDot:
		m.Out.WriteString(strconv.FormatInt(r0, 10))
		m.Out.WriteByte(' ')
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail0
		}
		pc++
		goto state0
	case vm.OpType:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		if !m.RangeOK(st[sp+0], r0) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		m.Out.Write(m.Mem[st[sp+0] : st[sp+0]+r0])
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail0
		}
		pc++
		goto state0
	case vm.OpDepth:
		r1 = vm.Cell(sp + 1)
		pc++
		goto state2
	case vm.OpQLitFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r1 = t0
				steps += 1
				pc += 2
				goto state2
			}
		}
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpQLitFetchAdd:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r0 += t0
				steps += 2
				pc += 3
				goto state1
			}
		}
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpQLitLitFetchAdd:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpFetch && code[pc+3].Op == vm.OpAdd {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				r1 = ins.Arg + t0
				steps += 3
				pc += 4
				goto state2
			}
		}
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpQLitFetchAddCFetch:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd && code[pc+3].Op == vm.OpCFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				bv, ok = m.ByteAt(r0 + t0)
				if ok {
					r0 = vm.Cell(bv)
					steps += 3
					pc += 4
					goto state1
				}
			}
		}
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpQLitFetchLitGe:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpLit && code[pc+3].Op == vm.OpGe {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r1 = flag(t0 >= code[pc+2].Arg)
				steps += 3
				pc += 4
				goto state2
			}
		}
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpQLitPlusStore:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				m.SetCellAt(ins.Arg, t0+r0)
				steps += 1
				pc += 2
				goto state0
			}
		}
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpQLitLitPlusStore:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				m.SetCellAt(code[pc+1].Arg, t0+ins.Arg)
				steps += 2
				pc += 3
				goto state1
			}
		}
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpQAddCFetch:
		ins.Op = vm.OpAdd
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		r0 = st[sp+0] + r0
		pc++
		goto state1
	case vm.OpQLitEq:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpEq {
			r0 = flag(r0 == ins.Arg)
			steps += 1
			pc += 2
			goto state1
		}
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	case vm.OpQDupLitEq:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpEq {
			r1 = flag(r0 == code[pc+1].Arg)
			steps += 2
			pc += 3
			goto state2
		}
		ins.Op = vm.OpDup
		t0 = r0
		r0 = t0
		r1 = t0
		pc++
		goto state2
	case vm.OpQSwapLitRshiftSwap:
		ins.Op = vm.OpSwap
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail1
		}
		sp -= 1
		t0 = st[sp+0]
		t1 = r0
		r0 = t1
		r1 = t0
		pc++
		goto state2
	case vm.OpQLitLshiftOverLit:
		ins.Op = vm.OpLit
		r1 = ins.Arg
		pc++
		goto state2
	default:
		errOp, errMsg = ins.Op, "invalid opcode"
		goto fail1
	}

state2:
	if pc < 0 || pc >= len(code) {
		errOp, errMsg = vm.OpNop, interp.MsgPCRange
		goto fail2
	}
	if steps >= limit {
		errOp, errMsg = vm.CanonicalInstr(code[pc]).Op, "step limit exceeded"
		goto fail2
	}
	ins = code[pc]
	steps++
	switch ins.Op {
	case vm.OpNop:
		pc++
		goto state2
	case vm.OpLit:
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpAdd:
		r0 = r0 + r1
		pc++
		goto state1
	case vm.OpSub:
		r0 = r0 - r1
		pc++
		goto state1
	case vm.OpMul:
		r0 = r0 * r1
		pc++
		goto state1
	case vm.OpDiv:
		if r1 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail0
		}
		r0 = interp.FloorDiv(r0, r1)
		pc++
		goto state1
	case vm.OpMod:
		if r1 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail0
		}
		r0 = interp.FloorMod(r0, r1)
		pc++
		goto state1
	case vm.OpNegate:
		r1 = -r1
		pc++
		goto state2
	case vm.OpAbs:
		if r1 < 0 {
			r1 = -r1
		}
		pc++
		goto state2
	case vm.OpMin:
		r0 = minCell(r0, r1)
		pc++
		goto state1
	case vm.OpMax:
		r0 = maxCell(r0, r1)
		pc++
		goto state1
	case vm.OpAnd:
		r0 = r0 & r1
		pc++
		goto state1
	case vm.OpOr:
		r0 = r0 | r1
		pc++
		goto state1
	case vm.OpXor:
		r0 = r0 ^ r1
		pc++
		goto state1
	case vm.OpInvert:
		r1 = ^r1
		pc++
		goto state2
	case vm.OpLshift:
		r0 = interp.ShiftLeft(r0, r1)
		pc++
		goto state1
	case vm.OpRshift:
		r0 = interp.ShiftRight(r0, r1)
		pc++
		goto state1
	case vm.OpOnePlus:
		r1 = r1 + 1
		pc++
		goto state2
	case vm.OpOneMinus:
		r1 = r1 - 1
		pc++
		goto state2
	case vm.OpTwoStar:
		r1 = r1 << 1
		pc++
		goto state2
	case vm.OpTwoSlash:
		r1 = r1 >> 1
		pc++
		goto state2
	case vm.OpCells:
		r1 = r1 * vm.CellSize
		pc++
		goto state2
	case vm.OpLitAdd:
		r1 = r1 + ins.Arg
		pc++
		goto state2
	case vm.OpEq:
		r0 = flag(r0 == r1)
		pc++
		goto state1
	case vm.OpNe:
		r0 = flag(r0 != r1)
		pc++
		goto state1
	case vm.OpLt:
		r0 = flag(r0 < r1)
		pc++
		goto state1
	case vm.OpGt:
		r0 = flag(r0 > r1)
		pc++
		goto state1
	case vm.OpLe:
		r0 = flag(r0 <= r1)
		pc++
		goto state1
	case vm.OpGe:
		r0 = flag(r0 >= r1)
		pc++
		goto state1
	case vm.OpULt:
		r0 = flag(uint64(r0) < uint64(r1))
		pc++
		goto state1
	case vm.OpZeroEq:
		r1 = flag(r1 == 0)
		pc++
		goto state2
	case vm.OpZeroNe:
		r1 = flag(r1 != 0)
		pc++
		goto state2
	case vm.OpZeroLt:
		r1 = flag(r1 < 0)
		pc++
		goto state2
	case vm.OpZeroGt:
		r1 = flag(r1 > 0)
		pc++
		goto state2
	case vm.OpDup:
		t0 = r1
		r1 = t0
		r2 = t0
		pc++
		goto state3
	case vm.OpDrop:
		pc++
		goto state1
	case vm.OpSwap:
		t0 = r0
		t1 = r1
		r0 = t1
		r1 = t0
		pc++
		goto state2
	case vm.OpOver:
		t0 = r0
		t1 = r1
		r0 = t0
		r1 = t1
		r2 = t0
		pc++
		goto state3
	case vm.OpRot:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail2
		}
		sp -= 1
		t0 = st[sp+0]
		t1 = r0
		t2 = r1
		r0 = t1
		r1 = t2
		r2 = t0
		pc++
		goto state3
	case vm.OpMinusRot:
		if sp < 1 {
			errOp, errMsg = ins.Op, "stack underflow"
			goto fail2
		}
		sp -= 1
		t0 = st[sp+0]
		t1 = r0
		t2 = r1
		r0 = t2
		r1 = t0
		r2 = t1
		pc++
		goto state3
	case vm.OpNip:
		t1 = r1
		r0 = t1
		pc++
		goto state1
	case vm.OpTuck:
		t0 = r0
		t1 = r1
		r0 = t1
		r1 = t0
		r2 = t1
		pc++
		goto state3
	case vm.OpTwoDup:
		t0 = r0
		t1 = r1
		r0 = t0
		r1 = t1
		r2 = t0
		r3 = t1
		pc++
		goto state4
	case vm.OpTwoDrop:
		pc++
		goto state0
	case vm.OpToR:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail1
		}
		rs[rp] = r1
		rp++
		pc++
		goto state1
	case vm.OpRFrom:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail2
		}
		rp--
		r2 = rs[rp]
		pc++
		goto state3
	case vm.OpRFetch:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail2
		}
		r2 = rs[rp-1]
		pc++
		goto state3
	case vm.OpFetch:
		t0, ok = m.CellAt(r1)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail2
		}
		r1 = t0
		pc++
		goto state2
	case vm.OpStore:
		if !m.SetCellAt(r1, r0) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpCFetch:
		bv, ok = m.ByteAt(r1)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail2
		}
		r1 = vm.Cell(bv)
		pc++
		goto state2
	case vm.OpCStore:
		if !m.SetByteAt(r1, r0) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpPlusStore:
		t0, ok = m.CellAt(r1)
		if !ok || !m.SetCellAt(r1, t0+r0) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		pc++
		goto state0
	case vm.OpBranch:
		pc = int(ins.Arg)
		goto state2
	case vm.OpBranchZero:
		if r1 == 0 {
			pc = int(ins.Arg)
		} else {
			pc++
		}
		goto state1
	case vm.OpCall:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail2
		}
		rs[rp] = vm.Cell(pc + 1)
		rp++
		pc = int(ins.Arg)
		goto state2
	case vm.OpExit:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail2
		}
		rp--
		pc = int(rs[rp])
		goto state2
	case vm.OpHalt:
		goto halt2
	case vm.OpDo:
		if rp+2 > len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail0
		}
		rs[rp] = r0
		rs[rp+1] = r1
		rp += 2
		pc++
		goto state0
	case vm.OpLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail2
		}
		rs[rp-1]++
		if rs[rp-1] == rs[rp-2] {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state2
	case vm.OpPlusLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail1
		}
		t0 = rs[rp-1] - rs[rp-2]
		rs[rp-1] += r1
		t1 = rs[rp-1] - rs[rp-2]
		if (t0 < 0) != (t1 < 0) {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state1
	case vm.OpI:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail2
		}
		r2 = rs[rp-1]
		pc++
		goto state3
	case vm.OpJ:
		if rp < 3 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail2
		}
		r2 = rs[rp-3]
		pc++
		goto state3
	case vm.OpUnloop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail2
		}
		rp -= 2
		pc++
		goto state2
	case vm.OpEmit:
		m.Out.WriteByte(byte(r1))
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail1
		}
		pc++
		goto state1
	case vm.OpDot:
		m.Out.WriteString(strconv.FormatInt(r1, 10))
		m.Out.WriteByte(' ')
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail1
		}
		pc++
		goto state1
	case vm.OpType:
		if !m.RangeOK(r0, r1) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail0
		}
		m.Out.Write(m.Mem[r0 : r0+r1])
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail0
		}
		pc++
		goto state0
	case vm.OpDepth:
		r2 = vm.Cell(sp + 2)
		pc++
		goto state3
	case vm.OpQLitFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r2 = t0
				steps += 1
				pc += 2
				goto state3
			}
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpQLitFetchAdd:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r1 += t0
				steps += 2
				pc += 3
				goto state2
			}
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpQLitLitFetchAdd:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpFetch && code[pc+3].Op == vm.OpAdd {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				r2 = ins.Arg + t0
				steps += 3
				pc += 4
				goto state3
			}
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpQLitFetchAddCFetch:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd && code[pc+3].Op == vm.OpCFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				bv, ok = m.ByteAt(r1 + t0)
				if ok {
					r1 = vm.Cell(bv)
					steps += 3
					pc += 4
					goto state2
				}
			}
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpQLitFetchLitGe:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpLit && code[pc+3].Op == vm.OpGe {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r2 = flag(t0 >= code[pc+2].Arg)
				steps += 3
				pc += 4
				goto state3
			}
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpQLitPlusStore:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				m.SetCellAt(ins.Arg, t0+r1)
				steps += 1
				pc += 2
				goto state1
			}
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpQLitLitPlusStore:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				m.SetCellAt(code[pc+1].Arg, t0+ins.Arg)
				steps += 2
				pc += 3
				goto state2
			}
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpQAddCFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpCFetch {
			bv, ok = m.ByteAt(r0 + r1)
			if ok {
				r0 = vm.Cell(bv)
				steps += 1
				pc += 2
				goto state1
			}
		}
		ins.Op = vm.OpAdd
		r0 = r0 + r1
		pc++
		goto state1
	case vm.OpQLitEq:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpEq {
			r1 = flag(r1 == ins.Arg)
			steps += 1
			pc += 2
			goto state2
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	case vm.OpQDupLitEq:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpEq {
			r2 = flag(r1 == code[pc+1].Arg)
			steps += 2
			pc += 3
			goto state3
		}
		ins.Op = vm.OpDup
		t0 = r1
		r1 = t0
		r2 = t0
		pc++
		goto state3
	case vm.OpQSwapLitRshiftSwap:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpRshift && code[pc+3].Op == vm.OpSwap {
			r0 = interp.ShiftRight(r0, code[pc+1].Arg)
			steps += 3
			pc += 4
			goto state2
		}
		ins.Op = vm.OpSwap
		t0 = r0
		t1 = r1
		r0 = t1
		r1 = t0
		pc++
		goto state2
	case vm.OpQLitLshiftOverLit:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLshift && code[pc+2].Op == vm.OpOver && code[pc+3].Op == vm.OpLit {
			r2 = r0
			r1 = interp.ShiftLeft(r1, ins.Arg)
			r3 = code[pc+3].Arg
			steps += 3
			pc += 4
			goto state4
		}
		ins.Op = vm.OpLit
		r2 = ins.Arg
		pc++
		goto state3
	default:
		errOp, errMsg = ins.Op, "invalid opcode"
		goto fail2
	}

state3:
	if pc < 0 || pc >= len(code) {
		errOp, errMsg = vm.OpNop, interp.MsgPCRange
		goto fail3
	}
	if steps >= limit {
		errOp, errMsg = vm.CanonicalInstr(code[pc]).Op, "step limit exceeded"
		goto fail3
	}
	ins = code[pc]
	steps++
	switch ins.Op {
	case vm.OpNop:
		pc++
		goto state3
	case vm.OpLit:
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpAdd:
		r1 = r1 + r2
		pc++
		goto state2
	case vm.OpSub:
		r1 = r1 - r2
		pc++
		goto state2
	case vm.OpMul:
		r1 = r1 * r2
		pc++
		goto state2
	case vm.OpDiv:
		if r2 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail1
		}
		r1 = interp.FloorDiv(r1, r2)
		pc++
		goto state2
	case vm.OpMod:
		if r2 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail1
		}
		r1 = interp.FloorMod(r1, r2)
		pc++
		goto state2
	case vm.OpNegate:
		r2 = -r2
		pc++
		goto state3
	case vm.OpAbs:
		if r2 < 0 {
			r2 = -r2
		}
		pc++
		goto state3
	case vm.OpMin:
		r1 = minCell(r1, r2)
		pc++
		goto state2
	case vm.OpMax:
		r1 = maxCell(r1, r2)
		pc++
		goto state2
	case vm.OpAnd:
		r1 = r1 & r2
		pc++
		goto state2
	case vm.OpOr:
		r1 = r1 | r2
		pc++
		goto state2
	case vm.OpXor:
		r1 = r1 ^ r2
		pc++
		goto state2
	case vm.OpInvert:
		r2 = ^r2
		pc++
		goto state3
	case vm.OpLshift:
		r1 = interp.ShiftLeft(r1, r2)
		pc++
		goto state2
	case vm.OpRshift:
		r1 = interp.ShiftRight(r1, r2)
		pc++
		goto state2
	case vm.OpOnePlus:
		r2 = r2 + 1
		pc++
		goto state3
	case vm.OpOneMinus:
		r2 = r2 - 1
		pc++
		goto state3
	case vm.OpTwoStar:
		r2 = r2 << 1
		pc++
		goto state3
	case vm.OpTwoSlash:
		r2 = r2 >> 1
		pc++
		goto state3
	case vm.OpCells:
		r2 = r2 * vm.CellSize
		pc++
		goto state3
	case vm.OpLitAdd:
		r2 = r2 + ins.Arg
		pc++
		goto state3
	case vm.OpEq:
		r1 = flag(r1 == r2)
		pc++
		goto state2
	case vm.OpNe:
		r1 = flag(r1 != r2)
		pc++
		goto state2
	case vm.OpLt:
		r1 = flag(r1 < r2)
		pc++
		goto state2
	case vm.OpGt:
		r1 = flag(r1 > r2)
		pc++
		goto state2
	case vm.OpLe:
		r1 = flag(r1 <= r2)
		pc++
		goto state2
	case vm.OpGe:
		r1 = flag(r1 >= r2)
		pc++
		goto state2
	case vm.OpULt:
		r1 = flag(uint64(r1) < uint64(r2))
		pc++
		goto state2
	case vm.OpZeroEq:
		r2 = flag(r2 == 0)
		pc++
		goto state3
	case vm.OpZeroNe:
		r2 = flag(r2 != 0)
		pc++
		goto state3
	case vm.OpZeroLt:
		r2 = flag(r2 < 0)
		pc++
		goto state3
	case vm.OpZeroGt:
		r2 = flag(r2 > 0)
		pc++
		goto state3
	case vm.OpDup:
		t0 = r2
		r2 = t0
		r3 = t0
		pc++
		goto state4
	case vm.OpDrop:
		pc++
		goto state2
	case vm.OpSwap:
		t0 = r1
		t1 = r2
		r1 = t1
		r2 = t0
		pc++
		goto state3
	case vm.OpOver:
		t0 = r1
		t1 = r2
		r1 = t0
		r2 = t1
		r3 = t0
		pc++
		goto state4
	case vm.OpRot:
		t0 = r0
		t1 = r1
		t2 = r2
		r0 = t1
		r1 = t2
		r2 = t0
		pc++
		goto state3
	case vm.OpMinusRot:
		t0 = r0
		t1 = r1
		t2 = r2
		r0 = t2
		r1 = t0
		r2 = t1
		pc++
		goto state3
	case vm.OpNip:
		t1 = r2
		r1 = t1
		pc++
		goto state2
	case vm.OpTuck:
		t0 = r1
		t1 = r2
		r1 = t1
		r2 = t0
		r3 = t1
		pc++
		goto state4
	case vm.OpTwoDup:
		t0 = r1
		t1 = r2
		r1 = t0
		r2 = t1
		r3 = t0
		r4 = t1
		pc++
		goto state5
	case vm.OpTwoDrop:
		pc++
		goto state1
	case vm.OpToR:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail2
		}
		rs[rp] = r2
		rp++
		pc++
		goto state2
	case vm.OpRFrom:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail3
		}
		rp--
		r3 = rs[rp]
		pc++
		goto state4
	case vm.OpRFetch:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail3
		}
		r3 = rs[rp-1]
		pc++
		goto state4
	case vm.OpFetch:
		t0, ok = m.CellAt(r2)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail3
		}
		r2 = t0
		pc++
		goto state3
	case vm.OpStore:
		if !m.SetCellAt(r2, r1) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail1
		}
		pc++
		goto state1
	case vm.OpCFetch:
		bv, ok = m.ByteAt(r2)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail3
		}
		r2 = vm.Cell(bv)
		pc++
		goto state3
	case vm.OpCStore:
		if !m.SetByteAt(r2, r1) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail1
		}
		pc++
		goto state1
	case vm.OpPlusStore:
		t0, ok = m.CellAt(r2)
		if !ok || !m.SetCellAt(r2, t0+r1) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail1
		}
		pc++
		goto state1
	case vm.OpBranch:
		pc = int(ins.Arg)
		goto state3
	case vm.OpBranchZero:
		if r2 == 0 {
			pc = int(ins.Arg)
		} else {
			pc++
		}
		goto state2
	case vm.OpCall:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail3
		}
		rs[rp] = vm.Cell(pc + 1)
		rp++
		pc = int(ins.Arg)
		goto state3
	case vm.OpExit:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail3
		}
		rp--
		pc = int(rs[rp])
		goto state3
	case vm.OpHalt:
		goto halt3
	case vm.OpDo:
		if rp+2 > len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail1
		}
		rs[rp] = r1
		rs[rp+1] = r2
		rp += 2
		pc++
		goto state1
	case vm.OpLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail3
		}
		rs[rp-1]++
		if rs[rp-1] == rs[rp-2] {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state3
	case vm.OpPlusLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail2
		}
		t0 = rs[rp-1] - rs[rp-2]
		rs[rp-1] += r2
		t1 = rs[rp-1] - rs[rp-2]
		if (t0 < 0) != (t1 < 0) {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state2
	case vm.OpI:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail3
		}
		r3 = rs[rp-1]
		pc++
		goto state4
	case vm.OpJ:
		if rp < 3 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail3
		}
		r3 = rs[rp-3]
		pc++
		goto state4
	case vm.OpUnloop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail3
		}
		rp -= 2
		pc++
		goto state3
	case vm.OpEmit:
		m.Out.WriteByte(byte(r2))
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail2
		}
		pc++
		goto state2
	case vm.OpDot:
		m.Out.WriteString(strconv.FormatInt(r2, 10))
		m.Out.WriteByte(' ')
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail2
		}
		pc++
		goto state2
	case vm.OpType:
		if !m.RangeOK(r1, r2) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail1
		}
		m.Out.Write(m.Mem[r1 : r1+r2])
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail1
		}
		pc++
		goto state1
	case vm.OpDepth:
		r3 = vm.Cell(sp + 3)
		pc++
		goto state4
	case vm.OpQLitFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r3 = t0
				steps += 1
				pc += 2
				goto state4
			}
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpQLitFetchAdd:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r2 += t0
				steps += 2
				pc += 3
				goto state3
			}
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpQLitLitFetchAdd:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpFetch && code[pc+3].Op == vm.OpAdd {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				r3 = ins.Arg + t0
				steps += 3
				pc += 4
				goto state4
			}
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpQLitFetchAddCFetch:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd && code[pc+3].Op == vm.OpCFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				bv, ok = m.ByteAt(r2 + t0)
				if ok {
					r2 = vm.Cell(bv)
					steps += 3
					pc += 4
					goto state3
				}
			}
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpQLitFetchLitGe:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpLit && code[pc+3].Op == vm.OpGe {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r3 = flag(t0 >= code[pc+2].Arg)
				steps += 3
				pc += 4
				goto state4
			}
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpQLitPlusStore:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				m.SetCellAt(ins.Arg, t0+r2)
				steps += 1
				pc += 2
				goto state2
			}
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpQLitLitPlusStore:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				m.SetCellAt(code[pc+1].Arg, t0+ins.Arg)
				steps += 2
				pc += 3
				goto state3
			}
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpQAddCFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpCFetch {
			bv, ok = m.ByteAt(r1 + r2)
			if ok {
				r1 = vm.Cell(bv)
				steps += 1
				pc += 2
				goto state2
			}
		}
		ins.Op = vm.OpAdd
		r1 = r1 + r2
		pc++
		goto state2
	case vm.OpQLitEq:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpEq {
			r2 = flag(r2 == ins.Arg)
			steps += 1
			pc += 2
			goto state3
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	case vm.OpQDupLitEq:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpEq {
			r3 = flag(r2 == code[pc+1].Arg)
			steps += 2
			pc += 3
			goto state4
		}
		ins.Op = vm.OpDup
		t0 = r2
		r2 = t0
		r3 = t0
		pc++
		goto state4
	case vm.OpQSwapLitRshiftSwap:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpRshift && code[pc+3].Op == vm.OpSwap {
			r1 = interp.ShiftRight(r1, code[pc+1].Arg)
			steps += 3
			pc += 4
			goto state3
		}
		ins.Op = vm.OpSwap
		t0 = r1
		t1 = r2
		r1 = t1
		r2 = t0
		pc++
		goto state3
	case vm.OpQLitLshiftOverLit:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLshift && code[pc+2].Op == vm.OpOver && code[pc+3].Op == vm.OpLit {
			r3 = r1
			r2 = interp.ShiftLeft(r2, ins.Arg)
			r4 = code[pc+3].Arg
			steps += 3
			pc += 4
			goto state5
		}
		ins.Op = vm.OpLit
		r3 = ins.Arg
		pc++
		goto state4
	default:
		errOp, errMsg = ins.Op, "invalid opcode"
		goto fail3
	}

state4:
	if pc < 0 || pc >= len(code) {
		errOp, errMsg = vm.OpNop, interp.MsgPCRange
		goto fail4
	}
	if steps >= limit {
		errOp, errMsg = vm.CanonicalInstr(code[pc]).Op, "step limit exceeded"
		goto fail4
	}
	ins = code[pc]
	steps++
	switch ins.Op {
	case vm.OpNop:
		pc++
		goto state4
	case vm.OpLit:
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpAdd:
		r2 = r2 + r3
		pc++
		goto state3
	case vm.OpSub:
		r2 = r2 - r3
		pc++
		goto state3
	case vm.OpMul:
		r2 = r2 * r3
		pc++
		goto state3
	case vm.OpDiv:
		if r3 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail2
		}
		r2 = interp.FloorDiv(r2, r3)
		pc++
		goto state3
	case vm.OpMod:
		if r3 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail2
		}
		r2 = interp.FloorMod(r2, r3)
		pc++
		goto state3
	case vm.OpNegate:
		r3 = -r3
		pc++
		goto state4
	case vm.OpAbs:
		if r3 < 0 {
			r3 = -r3
		}
		pc++
		goto state4
	case vm.OpMin:
		r2 = minCell(r2, r3)
		pc++
		goto state3
	case vm.OpMax:
		r2 = maxCell(r2, r3)
		pc++
		goto state3
	case vm.OpAnd:
		r2 = r2 & r3
		pc++
		goto state3
	case vm.OpOr:
		r2 = r2 | r3
		pc++
		goto state3
	case vm.OpXor:
		r2 = r2 ^ r3
		pc++
		goto state3
	case vm.OpInvert:
		r3 = ^r3
		pc++
		goto state4
	case vm.OpLshift:
		r2 = interp.ShiftLeft(r2, r3)
		pc++
		goto state3
	case vm.OpRshift:
		r2 = interp.ShiftRight(r2, r3)
		pc++
		goto state3
	case vm.OpOnePlus:
		r3 = r3 + 1
		pc++
		goto state4
	case vm.OpOneMinus:
		r3 = r3 - 1
		pc++
		goto state4
	case vm.OpTwoStar:
		r3 = r3 << 1
		pc++
		goto state4
	case vm.OpTwoSlash:
		r3 = r3 >> 1
		pc++
		goto state4
	case vm.OpCells:
		r3 = r3 * vm.CellSize
		pc++
		goto state4
	case vm.OpLitAdd:
		r3 = r3 + ins.Arg
		pc++
		goto state4
	case vm.OpEq:
		r2 = flag(r2 == r3)
		pc++
		goto state3
	case vm.OpNe:
		r2 = flag(r2 != r3)
		pc++
		goto state3
	case vm.OpLt:
		r2 = flag(r2 < r3)
		pc++
		goto state3
	case vm.OpGt:
		r2 = flag(r2 > r3)
		pc++
		goto state3
	case vm.OpLe:
		r2 = flag(r2 <= r3)
		pc++
		goto state3
	case vm.OpGe:
		r2 = flag(r2 >= r3)
		pc++
		goto state3
	case vm.OpULt:
		r2 = flag(uint64(r2) < uint64(r3))
		pc++
		goto state3
	case vm.OpZeroEq:
		r3 = flag(r3 == 0)
		pc++
		goto state4
	case vm.OpZeroNe:
		r3 = flag(r3 != 0)
		pc++
		goto state4
	case vm.OpZeroLt:
		r3 = flag(r3 < 0)
		pc++
		goto state4
	case vm.OpZeroGt:
		r3 = flag(r3 > 0)
		pc++
		goto state4
	case vm.OpDup:
		t0 = r3
		r3 = t0
		r4 = t0
		pc++
		goto state5
	case vm.OpDrop:
		pc++
		goto state3
	case vm.OpSwap:
		t0 = r2
		t1 = r3
		r2 = t1
		r3 = t0
		pc++
		goto state4
	case vm.OpOver:
		t0 = r2
		t1 = r3
		r2 = t0
		r3 = t1
		r4 = t0
		pc++
		goto state5
	case vm.OpRot:
		t0 = r1
		t1 = r2
		t2 = r3
		r1 = t1
		r2 = t2
		r3 = t0
		pc++
		goto state4
	case vm.OpMinusRot:
		t0 = r1
		t1 = r2
		t2 = r3
		r1 = t2
		r2 = t0
		r3 = t1
		pc++
		goto state4
	case vm.OpNip:
		t1 = r3
		r2 = t1
		pc++
		goto state3
	case vm.OpTuck:
		t0 = r2
		t1 = r3
		r2 = t1
		r3 = t0
		r4 = t1
		pc++
		goto state5
	case vm.OpTwoDup:
		t0 = r2
		t1 = r3
		r2 = t0
		r3 = t1
		r4 = t0
		r5 = t1
		pc++
		goto state6
	case vm.OpTwoDrop:
		pc++
		goto state2
	case vm.OpToR:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail3
		}
		rs[rp] = r3
		rp++
		pc++
		goto state3
	case vm.OpRFrom:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail4
		}
		rp--
		r4 = rs[rp]
		pc++
		goto state5
	case vm.OpRFetch:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail4
		}
		r4 = rs[rp-1]
		pc++
		goto state5
	case vm.OpFetch:
		t0, ok = m.CellAt(r3)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail4
		}
		r3 = t0
		pc++
		goto state4
	case vm.OpStore:
		if !m.SetCellAt(r3, r2) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail2
		}
		pc++
		goto state2
	case vm.OpCFetch:
		bv, ok = m.ByteAt(r3)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail4
		}
		r3 = vm.Cell(bv)
		pc++
		goto state4
	case vm.OpCStore:
		if !m.SetByteAt(r3, r2) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail2
		}
		pc++
		goto state2
	case vm.OpPlusStore:
		t0, ok = m.CellAt(r3)
		if !ok || !m.SetCellAt(r3, t0+r2) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail2
		}
		pc++
		goto state2
	case vm.OpBranch:
		pc = int(ins.Arg)
		goto state4
	case vm.OpBranchZero:
		if r3 == 0 {
			pc = int(ins.Arg)
		} else {
			pc++
		}
		goto state3
	case vm.OpCall:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail4
		}
		rs[rp] = vm.Cell(pc + 1)
		rp++
		pc = int(ins.Arg)
		goto state4
	case vm.OpExit:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail4
		}
		rp--
		pc = int(rs[rp])
		goto state4
	case vm.OpHalt:
		goto halt4
	case vm.OpDo:
		if rp+2 > len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail2
		}
		rs[rp] = r2
		rs[rp+1] = r3
		rp += 2
		pc++
		goto state2
	case vm.OpLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail4
		}
		rs[rp-1]++
		if rs[rp-1] == rs[rp-2] {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state4
	case vm.OpPlusLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail3
		}
		t0 = rs[rp-1] - rs[rp-2]
		rs[rp-1] += r3
		t1 = rs[rp-1] - rs[rp-2]
		if (t0 < 0) != (t1 < 0) {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state3
	case vm.OpI:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail4
		}
		r4 = rs[rp-1]
		pc++
		goto state5
	case vm.OpJ:
		if rp < 3 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail4
		}
		r4 = rs[rp-3]
		pc++
		goto state5
	case vm.OpUnloop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail4
		}
		rp -= 2
		pc++
		goto state4
	case vm.OpEmit:
		m.Out.WriteByte(byte(r3))
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail3
		}
		pc++
		goto state3
	case vm.OpDot:
		m.Out.WriteString(strconv.FormatInt(r3, 10))
		m.Out.WriteByte(' ')
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail3
		}
		pc++
		goto state3
	case vm.OpType:
		if !m.RangeOK(r2, r3) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail2
		}
		m.Out.Write(m.Mem[r2 : r2+r3])
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail2
		}
		pc++
		goto state2
	case vm.OpDepth:
		r4 = vm.Cell(sp + 4)
		pc++
		goto state5
	case vm.OpQLitFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r4 = t0
				steps += 1
				pc += 2
				goto state5
			}
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitFetchAdd:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r3 += t0
				steps += 2
				pc += 3
				goto state4
			}
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitLitFetchAdd:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpFetch && code[pc+3].Op == vm.OpAdd {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				r4 = ins.Arg + t0
				steps += 3
				pc += 4
				goto state5
			}
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitFetchAddCFetch:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd && code[pc+3].Op == vm.OpCFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				bv, ok = m.ByteAt(r3 + t0)
				if ok {
					r3 = vm.Cell(bv)
					steps += 3
					pc += 4
					goto state4
				}
			}
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitFetchLitGe:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpLit && code[pc+3].Op == vm.OpGe {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r4 = flag(t0 >= code[pc+2].Arg)
				steps += 3
				pc += 4
				goto state5
			}
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitPlusStore:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				m.SetCellAt(ins.Arg, t0+r3)
				steps += 1
				pc += 2
				goto state3
			}
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitLitPlusStore:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(code[pc+1].Arg)
			if ok {
				m.SetCellAt(code[pc+1].Arg, t0+ins.Arg)
				steps += 2
				pc += 3
				goto state4
			}
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQAddCFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpCFetch {
			bv, ok = m.ByteAt(r2 + r3)
			if ok {
				r2 = vm.Cell(bv)
				steps += 1
				pc += 2
				goto state3
			}
		}
		ins.Op = vm.OpAdd
		r2 = r2 + r3
		pc++
		goto state3
	case vm.OpQLitEq:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpEq {
			r3 = flag(r3 == ins.Arg)
			steps += 1
			pc += 2
			goto state4
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQDupLitEq:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpEq {
			r4 = flag(r3 == code[pc+1].Arg)
			steps += 2
			pc += 3
			goto state5
		}
		ins.Op = vm.OpDup
		t0 = r3
		r3 = t0
		r4 = t0
		pc++
		goto state5
	case vm.OpQSwapLitRshiftSwap:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpRshift && code[pc+3].Op == vm.OpSwap {
			r2 = interp.ShiftRight(r2, code[pc+1].Arg)
			steps += 3
			pc += 4
			goto state4
		}
		ins.Op = vm.OpSwap
		t0 = r2
		t1 = r3
		r2 = t1
		r3 = t0
		pc++
		goto state4
	case vm.OpQLitLshiftOverLit:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLshift && code[pc+2].Op == vm.OpOver && code[pc+3].Op == vm.OpLit {
			r4 = r2
			r3 = interp.ShiftLeft(r3, ins.Arg)
			r5 = code[pc+3].Arg
			steps += 3
			pc += 4
			goto state6
		}
		ins.Op = vm.OpLit
		r4 = ins.Arg
		pc++
		goto state5
	default:
		errOp, errMsg = ins.Op, "invalid opcode"
		goto fail4
	}

state5:
	if pc < 0 || pc >= len(code) {
		errOp, errMsg = vm.OpNop, interp.MsgPCRange
		goto fail5
	}
	if steps >= limit {
		errOp, errMsg = vm.CanonicalInstr(code[pc]).Op, "step limit exceeded"
		goto fail5
	}
	ins = code[pc]
	steps++
	switch ins.Op {
	case vm.OpNop:
		pc++
		goto state5
	case vm.OpLit:
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpAdd:
		r3 = r3 + r4
		pc++
		goto state4
	case vm.OpSub:
		r3 = r3 - r4
		pc++
		goto state4
	case vm.OpMul:
		r3 = r3 * r4
		pc++
		goto state4
	case vm.OpDiv:
		if r4 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail3
		}
		r3 = interp.FloorDiv(r3, r4)
		pc++
		goto state4
	case vm.OpMod:
		if r4 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail3
		}
		r3 = interp.FloorMod(r3, r4)
		pc++
		goto state4
	case vm.OpNegate:
		r4 = -r4
		pc++
		goto state5
	case vm.OpAbs:
		if r4 < 0 {
			r4 = -r4
		}
		pc++
		goto state5
	case vm.OpMin:
		r3 = minCell(r3, r4)
		pc++
		goto state4
	case vm.OpMax:
		r3 = maxCell(r3, r4)
		pc++
		goto state4
	case vm.OpAnd:
		r3 = r3 & r4
		pc++
		goto state4
	case vm.OpOr:
		r3 = r3 | r4
		pc++
		goto state4
	case vm.OpXor:
		r3 = r3 ^ r4
		pc++
		goto state4
	case vm.OpInvert:
		r4 = ^r4
		pc++
		goto state5
	case vm.OpLshift:
		r3 = interp.ShiftLeft(r3, r4)
		pc++
		goto state4
	case vm.OpRshift:
		r3 = interp.ShiftRight(r3, r4)
		pc++
		goto state4
	case vm.OpOnePlus:
		r4 = r4 + 1
		pc++
		goto state5
	case vm.OpOneMinus:
		r4 = r4 - 1
		pc++
		goto state5
	case vm.OpTwoStar:
		r4 = r4 << 1
		pc++
		goto state5
	case vm.OpTwoSlash:
		r4 = r4 >> 1
		pc++
		goto state5
	case vm.OpCells:
		r4 = r4 * vm.CellSize
		pc++
		goto state5
	case vm.OpLitAdd:
		r4 = r4 + ins.Arg
		pc++
		goto state5
	case vm.OpEq:
		r3 = flag(r3 == r4)
		pc++
		goto state4
	case vm.OpNe:
		r3 = flag(r3 != r4)
		pc++
		goto state4
	case vm.OpLt:
		r3 = flag(r3 < r4)
		pc++
		goto state4
	case vm.OpGt:
		r3 = flag(r3 > r4)
		pc++
		goto state4
	case vm.OpLe:
		r3 = flag(r3 <= r4)
		pc++
		goto state4
	case vm.OpGe:
		r3 = flag(r3 >= r4)
		pc++
		goto state4
	case vm.OpULt:
		r3 = flag(uint64(r3) < uint64(r4))
		pc++
		goto state4
	case vm.OpZeroEq:
		r4 = flag(r4 == 0)
		pc++
		goto state5
	case vm.OpZeroNe:
		r4 = flag(r4 != 0)
		pc++
		goto state5
	case vm.OpZeroLt:
		r4 = flag(r4 < 0)
		pc++
		goto state5
	case vm.OpZeroGt:
		r4 = flag(r4 > 0)
		pc++
		goto state5
	case vm.OpDup:
		t0 = r4
		r4 = t0
		r5 = t0
		pc++
		goto state6
	case vm.OpDrop:
		pc++
		goto state4
	case vm.OpSwap:
		t0 = r3
		t1 = r4
		r3 = t1
		r4 = t0
		pc++
		goto state5
	case vm.OpOver:
		t0 = r3
		t1 = r4
		r3 = t0
		r4 = t1
		r5 = t0
		pc++
		goto state6
	case vm.OpRot:
		t0 = r2
		t1 = r3
		t2 = r4
		r2 = t1
		r3 = t2
		r4 = t0
		pc++
		goto state5
	case vm.OpMinusRot:
		t0 = r2
		t1 = r3
		t2 = r4
		r2 = t2
		r3 = t0
		r4 = t1
		pc++
		goto state5
	case vm.OpNip:
		t1 = r4
		r3 = t1
		pc++
		goto state4
	case vm.OpTuck:
		t0 = r3
		t1 = r4
		r3 = t1
		r4 = t0
		r5 = t1
		pc++
		goto state6
	case vm.OpTwoDup:
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail5
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		t0 = r1
		t1 = r2
		r1 = t0
		r2 = t1
		r3 = t0
		r4 = t1
		pc++
		goto state5
	case vm.OpTwoDrop:
		pc++
		goto state3
	case vm.OpToR:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail4
		}
		rs[rp] = r4
		rp++
		pc++
		goto state4
	case vm.OpRFrom:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail5
		}
		rp--
		r5 = rs[rp]
		pc++
		goto state6
	case vm.OpRFetch:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail5
		}
		r5 = rs[rp-1]
		pc++
		goto state6
	case vm.OpFetch:
		t0, ok = m.CellAt(r4)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail5
		}
		r4 = t0
		pc++
		goto state5
	case vm.OpStore:
		if !m.SetCellAt(r4, r3) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail3
		}
		pc++
		goto state3
	case vm.OpCFetch:
		bv, ok = m.ByteAt(r4)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail5
		}
		r4 = vm.Cell(bv)
		pc++
		goto state5
	case vm.OpCStore:
		if !m.SetByteAt(r4, r3) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail3
		}
		pc++
		goto state3
	case vm.OpPlusStore:
		t0, ok = m.CellAt(r4)
		if !ok || !m.SetCellAt(r4, t0+r3) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail3
		}
		pc++
		goto state3
	case vm.OpBranch:
		pc = int(ins.Arg)
		goto state5
	case vm.OpBranchZero:
		if r4 == 0 {
			pc = int(ins.Arg)
		} else {
			pc++
		}
		goto state4
	case vm.OpCall:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail5
		}
		rs[rp] = vm.Cell(pc + 1)
		rp++
		pc = int(ins.Arg)
		goto state5
	case vm.OpExit:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail5
		}
		rp--
		pc = int(rs[rp])
		goto state5
	case vm.OpHalt:
		goto halt5
	case vm.OpDo:
		if rp+2 > len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail3
		}
		rs[rp] = r3
		rs[rp+1] = r4
		rp += 2
		pc++
		goto state3
	case vm.OpLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail5
		}
		rs[rp-1]++
		if rs[rp-1] == rs[rp-2] {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state5
	case vm.OpPlusLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail4
		}
		t0 = rs[rp-1] - rs[rp-2]
		rs[rp-1] += r4
		t1 = rs[rp-1] - rs[rp-2]
		if (t0 < 0) != (t1 < 0) {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state4
	case vm.OpI:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail5
		}
		r5 = rs[rp-1]
		pc++
		goto state6
	case vm.OpJ:
		if rp < 3 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail5
		}
		r5 = rs[rp-3]
		pc++
		goto state6
	case vm.OpUnloop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail5
		}
		rp -= 2
		pc++
		goto state5
	case vm.OpEmit:
		m.Out.WriteByte(byte(r4))
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail4
		}
		pc++
		goto state4
	case vm.OpDot:
		m.Out.WriteString(strconv.FormatInt(r4, 10))
		m.Out.WriteByte(' ')
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail4
		}
		pc++
		goto state4
	case vm.OpType:
		if !m.RangeOK(r3, r4) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail3
		}
		m.Out.Write(m.Mem[r3 : r3+r4])
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail3
		}
		pc++
		goto state3
	case vm.OpDepth:
		r5 = vm.Cell(sp + 5)
		pc++
		goto state6
	case vm.OpQLitFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r5 = t0
				steps += 1
				pc += 2
				goto state6
			}
		}
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpQLitFetchAdd:
		if steps+1 < limit && pc+3 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				r4 += t0
				steps += 2
				pc += 3
				goto state5
			}
		}
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpQLitLitFetchAdd:
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpQLitFetchAddCFetch:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd && code[pc+3].Op == vm.OpCFetch {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				bv, ok = m.ByteAt(r4 + t0)
				if ok {
					r4 = vm.Cell(bv)
					steps += 3
					pc += 4
					goto state5
				}
			}
		}
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpQLitFetchLitGe:
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpQLitPlusStore:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpPlusStore {
			t0, ok = m.CellAt(ins.Arg)
			if ok {
				m.SetCellAt(ins.Arg, t0+r4)
				steps += 1
				pc += 2
				goto state4
			}
		}
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpQLitLitPlusStore:
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpQAddCFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpCFetch {
			bv, ok = m.ByteAt(r3 + r4)
			if ok {
				r3 = vm.Cell(bv)
				steps += 1
				pc += 2
				goto state4
			}
		}
		ins.Op = vm.OpAdd
		r3 = r3 + r4
		pc++
		goto state4
	case vm.OpQLitEq:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpEq {
			r4 = flag(r4 == ins.Arg)
			steps += 1
			pc += 2
			goto state5
		}
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	case vm.OpQDupLitEq:
		ins.Op = vm.OpDup
		t0 = r4
		r4 = t0
		r5 = t0
		pc++
		goto state6
	case vm.OpQSwapLitRshiftSwap:
		if steps+2 < limit && pc+4 <= len(code) && code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpRshift && code[pc+3].Op == vm.OpSwap {
			r3 = interp.ShiftRight(r3, code[pc+1].Arg)
			steps += 3
			pc += 4
			goto state5
		}
		ins.Op = vm.OpSwap
		t0 = r3
		t1 = r4
		r3 = t1
		r4 = t0
		pc++
		goto state5
	case vm.OpQLitLshiftOverLit:
		ins.Op = vm.OpLit
		r5 = ins.Arg
		pc++
		goto state6
	default:
		errOp, errMsg = ins.Op, "invalid opcode"
		goto fail5
	}

state6:
	if pc < 0 || pc >= len(code) {
		errOp, errMsg = vm.OpNop, interp.MsgPCRange
		goto fail6
	}
	if steps >= limit {
		errOp, errMsg = vm.CanonicalInstr(code[pc]).Op, "step limit exceeded"
		goto fail6
	}
	ins = code[pc]
	steps++
	switch ins.Op {
	case vm.OpNop:
		pc++
		goto state6
	case vm.OpLit:
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpAdd:
		r4 = r4 + r5
		pc++
		goto state5
	case vm.OpSub:
		r4 = r4 - r5
		pc++
		goto state5
	case vm.OpMul:
		r4 = r4 * r5
		pc++
		goto state5
	case vm.OpDiv:
		if r5 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail4
		}
		r4 = interp.FloorDiv(r4, r5)
		pc++
		goto state5
	case vm.OpMod:
		if r5 == 0 {
			errOp, errMsg = ins.Op, "division by zero"
			goto fail4
		}
		r4 = interp.FloorMod(r4, r5)
		pc++
		goto state5
	case vm.OpNegate:
		r5 = -r5
		pc++
		goto state6
	case vm.OpAbs:
		if r5 < 0 {
			r5 = -r5
		}
		pc++
		goto state6
	case vm.OpMin:
		r4 = minCell(r4, r5)
		pc++
		goto state5
	case vm.OpMax:
		r4 = maxCell(r4, r5)
		pc++
		goto state5
	case vm.OpAnd:
		r4 = r4 & r5
		pc++
		goto state5
	case vm.OpOr:
		r4 = r4 | r5
		pc++
		goto state5
	case vm.OpXor:
		r4 = r4 ^ r5
		pc++
		goto state5
	case vm.OpInvert:
		r5 = ^r5
		pc++
		goto state6
	case vm.OpLshift:
		r4 = interp.ShiftLeft(r4, r5)
		pc++
		goto state5
	case vm.OpRshift:
		r4 = interp.ShiftRight(r4, r5)
		pc++
		goto state5
	case vm.OpOnePlus:
		r5 = r5 + 1
		pc++
		goto state6
	case vm.OpOneMinus:
		r5 = r5 - 1
		pc++
		goto state6
	case vm.OpTwoStar:
		r5 = r5 << 1
		pc++
		goto state6
	case vm.OpTwoSlash:
		r5 = r5 >> 1
		pc++
		goto state6
	case vm.OpCells:
		r5 = r5 * vm.CellSize
		pc++
		goto state6
	case vm.OpLitAdd:
		r5 = r5 + ins.Arg
		pc++
		goto state6
	case vm.OpEq:
		r4 = flag(r4 == r5)
		pc++
		goto state5
	case vm.OpNe:
		r4 = flag(r4 != r5)
		pc++
		goto state5
	case vm.OpLt:
		r4 = flag(r4 < r5)
		pc++
		goto state5
	case vm.OpGt:
		r4 = flag(r4 > r5)
		pc++
		goto state5
	case vm.OpLe:
		r4 = flag(r4 <= r5)
		pc++
		goto state5
	case vm.OpGe:
		r4 = flag(r4 >= r5)
		pc++
		goto state5
	case vm.OpULt:
		r4 = flag(uint64(r4) < uint64(r5))
		pc++
		goto state5
	case vm.OpZeroEq:
		r5 = flag(r5 == 0)
		pc++
		goto state6
	case vm.OpZeroNe:
		r5 = flag(r5 != 0)
		pc++
		goto state6
	case vm.OpZeroLt:
		r5 = flag(r5 < 0)
		pc++
		goto state6
	case vm.OpZeroGt:
		r5 = flag(r5 > 0)
		pc++
		goto state6
	case vm.OpDup:
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		t0 = r3
		r3 = t0
		r4 = t0
		pc++
		goto state5
	case vm.OpDrop:
		pc++
		goto state5
	case vm.OpSwap:
		t0 = r4
		t1 = r5
		r4 = t1
		r5 = t0
		pc++
		goto state6
	case vm.OpOver:
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		t0 = r2
		t1 = r3
		r2 = t0
		r3 = t1
		r4 = t0
		pc++
		goto state5
	case vm.OpRot:
		t0 = r3
		t1 = r4
		t2 = r5
		r3 = t1
		r4 = t2
		r5 = t0
		pc++
		goto state6
	case vm.OpMinusRot:
		t0 = r3
		t1 = r4
		t2 = r5
		r3 = t2
		r4 = t0
		r5 = t1
		pc++
		goto state6
	case vm.OpNip:
		t1 = r5
		r4 = t1
		pc++
		goto state5
	case vm.OpTuck:
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		t0 = r2
		t1 = r3
		r2 = t1
		r3 = t0
		r4 = t1
		pc++
		goto state5
	case vm.OpTwoDup:
		if sp+3 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		st[sp+2] = r2
		sp += 3
		r0 = r3
		r1 = r4
		r2 = r5
		t0 = r1
		t1 = r2
		r1 = t0
		r2 = t1
		r3 = t0
		r4 = t1
		pc++
		goto state5
	case vm.OpTwoDrop:
		pc++
		goto state4
	case vm.OpToR:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail5
		}
		rs[rp] = r5
		rp++
		pc++
		goto state5
	case vm.OpRFrom:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail6
		}
		rp--
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = rs[rp]
		pc++
		goto state5
	case vm.OpRFetch:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail6
		}
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = rs[rp-1]
		pc++
		goto state5
	case vm.OpFetch:
		t0, ok = m.CellAt(r5)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail6
		}
		r5 = t0
		pc++
		goto state6
	case vm.OpStore:
		if !m.SetCellAt(r5, r4) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail4
		}
		pc++
		goto state4
	case vm.OpCFetch:
		bv, ok = m.ByteAt(r5)
		if !ok {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail6
		}
		r5 = vm.Cell(bv)
		pc++
		goto state6
	case vm.OpCStore:
		if !m.SetByteAt(r5, r4) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail4
		}
		pc++
		goto state4
	case vm.OpPlusStore:
		t0, ok = m.CellAt(r5)
		if !ok || !m.SetCellAt(r5, t0+r4) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail4
		}
		pc++
		goto state4
	case vm.OpBranch:
		pc = int(ins.Arg)
		goto state6
	case vm.OpBranchZero:
		if r5 == 0 {
			pc = int(ins.Arg)
		} else {
			pc++
		}
		goto state5
	case vm.OpCall:
		if rp == len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail6
		}
		rs[rp] = vm.Cell(pc + 1)
		rp++
		pc = int(ins.Arg)
		goto state6
	case vm.OpExit:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail6
		}
		rp--
		pc = int(rs[rp])
		goto state6
	case vm.OpHalt:
		goto halt6
	case vm.OpDo:
		if rp+2 > len(rs) {
			errOp, errMsg = ins.Op, "return stack overflow"
			goto fail4
		}
		rs[rp] = r4
		rs[rp+1] = r5
		rp += 2
		pc++
		goto state4
	case vm.OpLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail6
		}
		rs[rp-1]++
		if rs[rp-1] == rs[rp-2] {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state6
	case vm.OpPlusLoop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail5
		}
		t0 = rs[rp-1] - rs[rp-2]
		rs[rp-1] += r5
		t1 = rs[rp-1] - rs[rp-2]
		if (t0 < 0) != (t1 < 0) {
			rp -= 2
			pc++
		} else {
			pc = int(ins.Arg)
		}
		goto state5
	case vm.OpI:
		if rp < 1 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail6
		}
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = rs[rp-1]
		pc++
		goto state5
	case vm.OpJ:
		if rp < 3 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail6
		}
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = rs[rp-3]
		pc++
		goto state5
	case vm.OpUnloop:
		if rp < 2 {
			errOp, errMsg = ins.Op, "return stack underflow"
			goto fail6
		}
		rp -= 2
		pc++
		goto state6
	case vm.OpEmit:
		m.Out.WriteByte(byte(r5))
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail5
		}
		pc++
		goto state5
	case vm.OpDot:
		m.Out.WriteString(strconv.FormatInt(r5, 10))
		m.Out.WriteByte(' ')
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail5
		}
		pc++
		goto state5
	case vm.OpType:
		if !m.RangeOK(r4, r5) {
			errOp, errMsg = ins.Op, "memory access out of range"
			goto fail4
		}
		m.Out.Write(m.Mem[r4 : r4+r5])
		if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
			errOp, errMsg = ins.Op, interp.MsgOutputLimit
			goto fail4
		}
		pc++
		goto state4
	case vm.OpDepth:
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = vm.Cell(sp + 4)
		pc++
		goto state5
	case vm.OpQLitFetch:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitFetchAdd:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitLitFetchAdd:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitFetchAddCFetch:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitFetchLitGe:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitPlusStore:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQLitLitPlusStore:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQAddCFetch:
		if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpCFetch {
			bv, ok = m.ByteAt(r4 + r5)
			if ok {
				r4 = vm.Cell(bv)
				steps += 1
				pc += 2
				goto state5
			}
		}
		ins.Op = vm.OpAdd
		r4 = r4 + r5
		pc++
		goto state5
	case vm.OpQLitEq:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	case vm.OpQDupLitEq:
		ins.Op = vm.OpDup
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		t0 = r3
		r3 = t0
		r4 = t0
		pc++
		goto state5
	case vm.OpQSwapLitRshiftSwap:
		ins.Op = vm.OpSwap
		t0 = r4
		t1 = r5
		r4 = t1
		r5 = t0
		pc++
		goto state6
	case vm.OpQLitLshiftOverLit:
		ins.Op = vm.OpLit
		if sp+2 > len(st) {
			errOp, errMsg = ins.Op, "stack overflow"
			goto fail6
		}
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
		r0 = r2
		r1 = r3
		r2 = r4
		r3 = r5
		r4 = ins.Arg
		pc++
		goto state5
	default:
		errOp, errMsg = ins.Op, "invalid opcode"
		goto fail6
	}

fail0:
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return &interp.RuntimeError{PC: pc, Op: errOp, Msg: errMsg}

halt0:
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return nil

fail1:
	if sp+1 <= len(st) {
		st[sp+0] = r0
		sp += 1
	}
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return &interp.RuntimeError{PC: pc, Op: errOp, Msg: errMsg}

halt1:
	if sp+1 > len(st) {
		errOp, errMsg = ins.Op, "stack overflow"
		goto fail0
	}
	st[sp+0] = r0
	sp += 1
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return nil

fail2:
	if sp+2 <= len(st) {
		st[sp+0] = r0
		st[sp+1] = r1
		sp += 2
	}
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return &interp.RuntimeError{PC: pc, Op: errOp, Msg: errMsg}

halt2:
	if sp+2 > len(st) {
		errOp, errMsg = ins.Op, "stack overflow"
		goto fail0
	}
	st[sp+0] = r0
	st[sp+1] = r1
	sp += 2
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return nil

fail3:
	if sp+3 <= len(st) {
		st[sp+0] = r0
		st[sp+1] = r1
		st[sp+2] = r2
		sp += 3
	}
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return &interp.RuntimeError{PC: pc, Op: errOp, Msg: errMsg}

halt3:
	if sp+3 > len(st) {
		errOp, errMsg = ins.Op, "stack overflow"
		goto fail0
	}
	st[sp+0] = r0
	st[sp+1] = r1
	st[sp+2] = r2
	sp += 3
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return nil

fail4:
	if sp+4 <= len(st) {
		st[sp+0] = r0
		st[sp+1] = r1
		st[sp+2] = r2
		st[sp+3] = r3
		sp += 4
	}
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return &interp.RuntimeError{PC: pc, Op: errOp, Msg: errMsg}

halt4:
	if sp+4 > len(st) {
		errOp, errMsg = ins.Op, "stack overflow"
		goto fail0
	}
	st[sp+0] = r0
	st[sp+1] = r1
	st[sp+2] = r2
	st[sp+3] = r3
	sp += 4
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return nil

fail5:
	if sp+5 <= len(st) {
		st[sp+0] = r0
		st[sp+1] = r1
		st[sp+2] = r2
		st[sp+3] = r3
		st[sp+4] = r4
		sp += 5
	}
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return &interp.RuntimeError{PC: pc, Op: errOp, Msg: errMsg}

halt5:
	if sp+5 > len(st) {
		errOp, errMsg = ins.Op, "stack overflow"
		goto fail0
	}
	st[sp+0] = r0
	st[sp+1] = r1
	st[sp+2] = r2
	st[sp+3] = r3
	st[sp+4] = r4
	sp += 5
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return nil

fail6:
	if sp+6 <= len(st) {
		st[sp+0] = r0
		st[sp+1] = r1
		st[sp+2] = r2
		st[sp+3] = r3
		st[sp+4] = r4
		st[sp+5] = r5
		sp += 6
	}
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return &interp.RuntimeError{PC: pc, Op: errOp, Msg: errMsg}

halt6:
	if sp+6 > len(st) {
		errOp, errMsg = ins.Op, "stack overflow"
		goto fail0
	}
	st[sp+0] = r0
	st[sp+1] = r1
	st[sp+2] = r2
	st[sp+3] = r3
	st[sp+4] = r4
	st[sp+5] = r5
	sp += 6
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	return nil

}
