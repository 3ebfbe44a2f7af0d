package vm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// This file implements the bytecode abstract interpretation that turns
// the per-dispatch stack checks of the execution engines into ahead-of-
// time proofs. It is the same dataflow machinery that drives static
// stack caching (§5 of the paper): walk the control-flow graph derived
// from Effect metadata, propagate an abstract stack state along every
// edge, and reconcile states at join points — except the abstract state
// here is a depth interval rather than a cache-register assignment.
//
// The analysis is interprocedural by word summaries. Each called word
// (an OpCall target) is analyzed once in relative terms — depth
// intervals relative to the depth at its entry — producing a summary
// (net data-stack effect over all its exits). Callers apply the summary
// at each call site instead of re-walking the callee, which keeps the
// analysis precise when one helper word is called from many different
// absolute depths (the common shape the Forth front end emits). A
// second, top-down pass then assigns each word an absolute entry-depth
// interval (joined over its call sites) and checks every reachable
// instruction against the real capacities.
//
// Return-stack safety is proven through frame discipline: within a
// called word the analysis tracks the return-stack height relative to
// the word's entry (the frame), with the return address conceptually
// just below height zero. An OpExit is a proven return exactly when the
// frame height is exactly zero — then the cell it pops is necessarily
// the return address its call pushed. Loop-control traffic (do/loop)
// and >r/r> pairs must stay at non-negative frame heights; anything
// that may reach below the frame (popping the return address, or the
// caller's loop controls) makes the program unprovable, and it keeps
// the dynamic checks. Recursion surfaces naturally: a recursive call
// cycle makes the absolute entry intervals of the words involved grow
// without bound, which widening drives to the capacity sentinel and
// reports as possible stack overflow — the honest answer, since
// recursion depth is data-dependent.

// AnalysisDepthCap and AnalysisRDepthCap are the stack capacities the
// analysis proves against. They equal interp.DefaultStackCap and
// DefaultRStackCap (asserted by tests there; vm cannot import interp).
// Engines additionally re-check the proven maxima against the actual
// machine's stack sizes at run time, so a mismatch degrades to the
// checked path rather than to unsoundness.
const (
	AnalysisDepthCap  = 4096
	AnalysisRDepthCap = 4096
)

// widenAfter bounds how many state-changing joins a program point (or a
// word's absolute entry) absorbs before its upper bounds are widened to
// the capacity sentinel. Monotone interval joins terminate without it,
// but only after O(capacity) round trips around a depth-accumulating
// loop; widening reaches the same "may overflow" verdict in a handful.
const widenAfter = 32

// analysisBudget caps the total number of abstract transfer steps plus
// allocated state slots, a safety valve so adversarial (fuzzed)
// programs cannot make Analyze quadratic-slow or quadratic-large.
// Exceeding it yields an unproven result, never an unsound one. Real
// programs use a tiny fraction of this.
const analysisBudget = 4_000_000

// Interval is an inclusive [Lo,Hi] bound on a stack depth at one
// program point. Depths are cells; for data-stack facts the interval is
// relative to an empty stack at program entry (runs seeded with initial
// arguments shift it uniformly upward, which engines account for when
// deciding to elide checks).
type Interval struct {
	Lo, Hi int
}

// String renders the interval compactly: "3" or "0..4".
func (iv Interval) String() string {
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("%d", iv.Lo)
	}
	return fmt.Sprintf("%d..%d", iv.Lo, iv.Hi)
}

// PCFact is what the analysis knows about one instruction.
type PCFact struct {
	// Reachable reports whether any abstract execution path reaches
	// this pc. Unreachable instructions have zero-value intervals.
	Reachable bool

	// Depth bounds the data-stack depth on entry to the instruction,
	// joined over every calling context that reaches it. A negative Lo
	// means a path may arrive with fewer cells than some instruction
	// below needs — an unproven program.
	Depth Interval

	// RDepth bounds the return-stack height on entry, likewise.
	RDepth Interval
}

// Violation is one pc-precise reason a program is unproven. Violations
// are facts about the abstraction ("may underflow"), not necessarily
// about any concrete run; engines respond by keeping their dynamic
// checks, and VerifyStrict turns the first one into an error.
type Violation struct {
	PC  int
	Msg string
}

func (v Violation) String() string { return fmt.Sprintf("pc %d: %s", v.PC, v.Msg) }

// Facts is the artifact of Analyze: everything the abstract
// interpretation proved (or failed to prove) about a program.
type Facts struct {
	// Proved reports that every reachable instruction is safe without
	// dynamic stack checks: no data- or return-stack underflow, depths
	// within DepthCap/RDepthCap, every reachable OpExit provably pops a
	// return address pushed by a matching OpCall, and no reachable
	// instruction falls off the end of the code.
	Proved bool

	// MaxDepth and MaxRDepth bound the data- and return-stack cells
	// live at any moment of any run started with empty stacks. They are
	// meaningful (and ≤ the caps) exactly when Proved; engines add the
	// run's initial depths and compare against the actual stack sizes
	// before taking a check-elided path.
	MaxDepth  int
	MaxRDepth int

	// DepthCap and RDepthCap record the capacities the proof is
	// against.
	DepthCap  int
	RDepthCap int

	// PCs has one entry per instruction.
	PCs []PCFact

	// Violations lists everything that blocked the proof, sorted by pc
	// (a structurally invalid program yields a single pc -1 entry).
	Violations []Violation
}

// NoFacts is the sentinel callers attach to a machine to force the
// fully checked execution paths even for provable programs — the
// elision kill switch used by differential tests and benchmarks.
var NoFacts = &Facts{}

// Unreachable returns the pcs no abstract path reaches, ascending.
func (f *Facts) Unreachable() []int {
	var out []int
	for pc := range f.PCs {
		if !f.PCs[pc].Reachable {
			out = append(out, pc)
		}
	}
	return out
}

// Outcome renders the proof result as the service-facing label.
func (f *Facts) Outcome() string {
	if f != nil && f.Proved {
		return "proved"
	}
	return "unproven"
}

// Analyze runs the abstract interpretation over p and returns its
// Facts. It never fails: structurally invalid programs come back
// unproven with a pc -1 violation. Analyze is pure and deterministic:
// its facts are a function of p alone, since no step iterates a map,
// and they are the same for p quickened or unquickened. Callers
// therefore analyze a program once and keep the result with it: the
// artifact store attaches it to each unit it builds (and persists it),
// and engine.FactsFor analyzes any other program once per identity.
func Analyze(p *Program) *Facts {
	return analyze(p, AnalysisDepthCap, AnalysisRDepthCap)
}

// VerifyStrict is Verify plus the depth proof: it accepts exactly the
// programs whose every reachable instruction is statically safe, and
// reports the first violation pc-precisely otherwise. Engines do not
// require VerifyStrict — unproven programs simply execute with dynamic
// checks — but front ends can use it as a hard gate.
func VerifyStrict(p *Program) error {
	if err := Verify(p); err != nil {
		return err
	}
	if f := Analyze(p); !f.Proved {
		v := f.Violations[0]
		return fmt.Errorf("vm: pc %d: %s", v.PC, v.Msg)
	}
	return nil
}

// --- implementation ---

// interval is the internal half-open-ended lattice element. Bounds are
// clamped to ±(cap+1); cap+1 is the "may exceed capacity" sentinel
// (sticky, since no deeper value changes the verdict).
type interval struct{ lo, hi int }

func ivJoin(a, b interval) interval {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// pcState is the abstract state on entry to one pc in one word
// context: depth intervals relative to the word's entry.
type pcState struct {
	live  bool
	d, r  interval
	joins int
}

// proc is one analysis context: either the program's top level (the
// code reachable from Entry outside any call frame) or a called word.
// The same pc can belong to several procs (a branch into another
// word's body); it gets independent relative states in each.
type proc struct {
	entry  int
	framed bool // entered by OpCall (a return address sits below the frame)
	queued bool // on run's (later propagateAbs's) worklist

	// states is a dense window over the pcs [base, base+len(states)).
	// A word's body is contiguous code, so the window a context reaches
	// is about its body's length; it grows (geometrically) only when a
	// branch leaves it.
	base   int
	states []pcState

	// calls lists the context's live OpCall pcs in the order they
	// became live; callers lists, once per live call site, the contexts
	// calling this word. Together they are the call graph, so neither
	// fixpoint rescans the states.
	calls   []int
	callers []*proc

	// Summary: the join of the relative data depth at every frame-base
	// exit, i.e. the word's net stack effect. hasExit false means the
	// word (as far as proven paths go) never returns.
	netD    interval
	hasExit bool

	// Phase B: absolute entry-depth intervals, joined over call sites.
	absD, absR interval
	absLive    bool
	absJoins   int
}

func procID(entry int, framed bool) int {
	id := entry << 1
	if framed {
		id |= 1
	}
	return id
}

type analyzer struct {
	p          *Program
	dcap, rcap int
	dlim, rlim int // cap+1 sentinels

	procs []*proc // by procID; nil until discovered
	order []*proc // discovery order; order[0] is the top level

	work   []int  // runProc's pc worklist (a stack)
	inWork []bool // by pc: on work

	budget int
	broke  bool // budget exhausted; result is unproven
}

func (a *analyzer) clampD(v int) int { return clamp(v, a.dlim) }
func (a *analyzer) clampR(v int) int { return clamp(v, a.rlim) }

func clamp(v, lim int) int {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// shiftD/shiftR move both interval bounds by a fixed net effect.
func (a *analyzer) shiftD(iv interval, by int) interval {
	return interval{a.clampD(iv.lo + by), a.clampD(iv.hi + by)}
}

func (a *analyzer) shiftR(iv interval, by int) interval {
	return interval{a.clampR(iv.lo + by), a.clampR(iv.hi + by)}
}

// addD/addR sum two intervals (absolute entry + relative offset).
func (a *analyzer) addD(x, y interval) interval {
	return interval{a.clampD(x.lo + y.lo), a.clampD(x.hi + y.hi)}
}

func (a *analyzer) addR(x, y interval) interval {
	return interval{a.clampR(x.lo + y.lo), a.clampR(x.hi + y.hi)}
}

func analyze(p *Program, dcap, rcap int) *Facts {
	f := &Facts{DepthCap: dcap, RDepthCap: rcap, PCs: make([]PCFact, len(p.Code))}
	if err := p.Validate(); err != nil {
		f.Violations = []Violation{{PC: -1, Msg: "not analyzable: " + err.Error()}}
		return f
	}
	n := len(p.Code)
	a := &analyzer{
		p: p, dcap: dcap, rcap: rcap, dlim: dcap + 1, rlim: rcap + 1,
		procs:  make([]*proc, 2*n),
		inWork: make([]bool, n),
		budget: analysisBudget,
	}
	a.run()
	a.collect(f)
	return f
}

// getProc returns (creating if needed) the context for entry/framed.
// A new context's window runs from the entry to the first exit or
// halt: the whole body of a word without early exits.
func (a *analyzer) getProc(entry int, framed bool) *proc {
	id := procID(entry, framed)
	ps := a.procs[id]
	if ps == nil {
		code := a.p.Code
		end := entry
		for end < len(code)-1 && code[end].Op != OpExit && code[end].Op != OpHalt {
			end++
		}
		ps = &proc{entry: entry, framed: framed, base: entry, states: make([]pcState, end+1-entry)}
		a.budget -= len(ps.states)
		a.procs[id] = ps
		a.order = append(a.order, ps)
	}
	return ps
}

// minWindow is the least a window grows by.
const minWindow = 16

// state returns ps's state slot for pc, growing the window to cover
// it. Growth at least doubles the window (clipped to the code), so a
// body walked one pc at a time costs amortized O(1) per pc; the slots
// it adds are charged to the budget, so branches that stretch many
// windows across the code stay bounded in memory. The pointer is valid
// until the next call.
func (a *analyzer) state(ps *proc, pc int) *pcState {
	if i := pc - ps.base; i >= 0 && i < len(ps.states) {
		return &ps.states[i]
	}
	lo, hi := ps.base, ps.base+len(ps.states)
	grow := max(len(ps.states), minWindow)
	if pc < lo {
		lo = max(0, min(pc, lo-grow))
	} else {
		hi = min(len(a.p.Code), max(pc+1, hi+grow))
	}
	states := make([]pcState, hi-lo)
	copy(states[ps.base-lo:], ps.states)
	a.budget -= len(states) - len(ps.states)
	ps.base, ps.states = lo, states
	return &ps.states[pc-lo]
}

// run is phase A: the summary fixpoint. Each word context is
// (re)analyzed intra-procedurally until no summary changes; a word is
// re-queued when a callee's summary grows, which is what lets mutual
// recursion converge (to summaries whose depth consequences phase B
// then widens to "may overflow").
func (a *analyzer) run() {
	main := a.getProc(a.p.Entry, false)
	main.queued = true
	dirty := []*proc{main}
	drained := 1 // order[:drained] have been queued
	for len(dirty) > 0 && !a.broke {
		ps := dirty[len(dirty)-1]
		dirty = dirty[:len(dirty)-1]
		ps.queued = false
		grew := a.runProc(ps)
		// Words discovered by this round's call sites must be analyzed
		// themselves before the result means anything.
		for _, np := range a.order[drained:] {
			np.queued = true
			dirty = append(dirty, np)
		}
		drained = len(a.order)
		if grew && ps.framed {
			// This word's summary changed: every context that calls it
			// must recompute.
			for _, caller := range ps.callers {
				if !caller.queued {
					caller.queued = true
					dirty = append(dirty, caller)
				}
			}
		}
	}
	a.propagateAbs()
}

// joinState merges (d, r) into the proc's state at pc, returning
// whether anything changed; widening kicks in after widenAfter growing
// joins. A call site becoming live enters the call graph here.
func (a *analyzer) joinState(ps *proc, pc int, d, r interval) bool {
	st := a.state(ps, pc)
	if !st.live {
		st.live, st.d, st.r = true, d, r
		if ins := a.p.Code[pc]; ins.Op == OpCall {
			ps.calls = append(ps.calls, pc)
			callee := a.getProc(int(ins.Arg), true)
			callee.callers = append(callee.callers, ps)
		}
		return true
	}
	nd, nr := ivJoin(st.d, d), ivJoin(st.r, r)
	if nd == st.d && nr == st.r {
		return false
	}
	st.joins++
	if st.joins > widenAfter {
		// Directional widening: a bound still moving after this many
		// joins is unbounded in the abstraction; send it straight to
		// its sentinel (the verdict is the same either way).
		nd = widen(nd, st.d, a.dlim)
		nr = widen(nr, st.r, a.rlim)
	}
	st.d, st.r = nd, nr
	return true
}

// widen sends whichever bounds of next moved past prev to the ±lim
// sentinels.
func widen(next, prev interval, lim int) interval {
	if next.lo < prev.lo {
		next.lo = -lim
	}
	if next.hi > prev.hi {
		next.hi = lim
	}
	return next
}

func (a *analyzer) push(pc int) {
	if !a.inWork[pc] {
		a.inWork[pc] = true
		a.work = append(a.work, pc)
	}
}

func (a *analyzer) flow(ps *proc, to int, d, r interval) {
	if a.joinState(ps, to, d, r) {
		a.push(to)
	}
}

// runProc runs the intra-procedural worklist for one context and
// reports whether the proc's summary (netD/hasExit) grew.
func (a *analyzer) runProc(ps *proc) bool {
	code := a.p.Code
	n := len(code)
	// Seed. The first round starts at the entry in the frame-base
	// state. A later round replays only the live call sites, in the
	// order they became live: a grown callee summary changes nothing
	// else, since the previous round drained every other state with
	// its final inputs.
	if a.joinState(ps, ps.entry, interval{0, 0}, interval{0, 0}) {
		a.push(ps.entry)
	} else {
		for i := len(ps.calls) - 1; i >= 0; i-- {
			a.push(ps.calls[i])
		}
	}

	oldNet, oldHas := ps.netD, ps.hasExit
	for len(a.work) > 0 {
		if a.budget--; a.budget <= 0 {
			a.broke = true
			return false
		}
		pc := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		a.inWork[pc] = false
		st := ps.states[pc-ps.base] // a copy: flows may move the window
		ins := code[pc]
		eff := EffectOf(ins.Op)

		// The generic post-state: pops then pushes on both stacks.
		d := a.shiftD(st.d, eff.Out-eff.In)
		r := a.shiftR(st.r, eff.ROut-eff.RIn)

		switch ins.Op {
		case OpBranch:
			a.flow(ps, int(ins.Arg), d, r)
		case OpBranchZero:
			a.flow(ps, int(ins.Arg), d, r)
			if pc+1 < n {
				a.flow(ps, pc+1, d, r)
			}
		case OpLoop, OpPlusLoop:
			// Back edge: loop controls stay (the table's RIn/ROut
			// cancel). Fall-through: both controls popped.
			a.flow(ps, int(ins.Arg), d, r)
			if pc+1 < n {
				a.flow(ps, pc+1, d, a.shiftR(st.r, -2))
			}
		case OpCall:
			callee := a.procs[procID(int(ins.Arg), true)]
			if callee.hasExit && pc+1 < n {
				a.flow(ps, pc+1, a.addD(st.d, callee.netD), st.r)
			}
		case OpExit:
			// Terminal here; a framed exit at the frame base is the
			// word's return, recorded in the summary. (Off-base exits
			// are unproven — collect() flags them — but joining their
			// depth keeps annotations defined.)
			if ps.framed {
				if !ps.hasExit {
					ps.hasExit, ps.netD = true, st.d
				} else {
					ps.netD = ivJoin(ps.netD, st.d)
				}
			}
		case OpHalt:
			// Terminal.
		default:
			if pc+1 < n {
				a.flow(ps, pc+1, d, r)
			}
		}
	}
	return ps.netD != oldNet || ps.hasExit != oldHas
}

// propagateAbs is phase B: absolute entry intervals per context, joined
// over call sites, with widening so recursive cycles reach the
// capacity sentinel instead of iterating forever.
func (a *analyzer) propagateAbs() {
	if a.broke {
		return
	}
	main := a.order[0]
	main.absLive = true
	main.absD, main.absR = interval{0, 0}, interval{0, 0}
	main.queued = true
	work := []*proc{main}
	for len(work) > 0 {
		if a.budget--; a.budget <= 0 {
			a.broke = true
			return
		}
		ps := work[len(work)-1]
		work = work[:len(work)-1]
		ps.queued = false
		for _, pc := range ps.calls {
			st := ps.states[pc-ps.base]
			callee := a.procs[procID(int(a.p.Code[pc].Arg), true)]
			// The callee enters at the caller's depth here; its frame
			// base sits above the pushed return address.
			cd := a.addD(ps.absD, st.d)
			cr := a.addR(ps.absR, st.r)
			cr = a.shiftR(cr, 1)
			changed := false
			if !callee.absLive {
				callee.absLive = true
				callee.absD, callee.absR = cd, cr
				changed = true
			} else {
				nd, nr := ivJoin(callee.absD, cd), ivJoin(callee.absR, cr)
				if nd != callee.absD || nr != callee.absR {
					callee.absJoins++
					if callee.absJoins > widenAfter {
						nd = widen(nd, callee.absD, a.dlim)
						nr = widen(nr, callee.absR, a.rlim)
					}
					callee.absD, callee.absR = nd, nr
					changed = true
				}
			}
			if changed && !callee.queued {
				callee.queued = true
				work = append(work, callee)
			}
		}
	}
}

// collect is the final, non-mutating pass: absolute per-pc intervals,
// the proven maxima, and every violation — checked once, with the
// converged values, so messages are stable. Messages name a
// superinstruction by its first constituent, whose effect it has, so
// quickening never changes the facts.
func (a *analyzer) collect(f *Facts) {
	code := a.p.Code
	n := len(code)
	addV := func(pc int, msg string) {
		f.Violations = append(f.Violations, Violation{PC: pc, Msg: msg})
	}
	if a.broke {
		addV(-1, "analysis budget exceeded; program too adversarial to prove")
	}
	// A depth over the capacity is unbounded in the abstraction, so the
	// overflow messages are fixed per analysis; recursive programs
	// report them at nearly every pc.
	dOver := fmt.Sprintf("data stack may overflow: depth may reach unbounded (capacity %d)", a.dcap)
	rOver := fmt.Sprintf("return stack may overflow: depth may reach unbounded (capacity %d)", a.rcap)

	maxD, maxR := 0, 0
	for _, ps := range a.order {
		if !ps.absLive {
			continue
		}
		for i, st := range ps.states {
			if !st.live {
				continue
			}
			pc := ps.base + i
			ins := code[pc]
			op := CanonicalInstr(ins).Op
			eff := EffectOf(op)
			ad := a.addD(ps.absD, st.d)
			ar := a.addR(ps.absR, st.r)

			// Per-pc annotation: join over contexts.
			pf := &f.PCs[pc]
			if !pf.Reachable {
				pf.Reachable = true
				pf.Depth = Interval{ad.lo, ad.hi}
				pf.RDepth = Interval{ar.lo, ar.hi}
			} else {
				pf.Depth = Interval{min(pf.Depth.Lo, ad.lo), max(pf.Depth.Hi, ad.hi)}
				pf.RDepth = Interval{min(pf.RDepth.Lo, ar.lo), max(pf.RDepth.Hi, ar.hi)}
			}

			// Data stack: underflow against the guaranteed minimum,
			// overflow against the in-instruction peak.
			if eff.In > ad.lo {
				addV(pc, fmt.Sprintf("data stack may underflow: %s needs %d, depth may be %d",
					op, eff.In, ad.lo))
			}
			peak := max(ad.hi, ad.hi-eff.In+eff.Out)
			if peak > a.dcap {
				addV(pc, dOver)
			}
			maxD = max(maxD, peak)

			// Return stack.
			rpeak := max(ar.hi, ar.hi-eff.RIn+eff.ROut)
			switch op {
			case OpExit:
				if ar.lo < 1 {
					addV(pc, fmt.Sprintf("return stack may underflow: exit needs 1, height may be %d", ar.lo))
				} else if !ps.framed || st.r.lo != 0 || st.r.hi != 0 {
					addV(pc, fmt.Sprintf("exit return address is not provably a call return (frame height %d..%d)",
						st.r.lo, st.r.hi))
				}
			case OpCall:
				rpeak = max(rpeak, ar.hi+1)
				if pc+1 >= n && a.procs[procID(int(ins.Arg), true)].hasExit {
					addV(pc, fmt.Sprintf("call return address %d is outside the code", pc+1))
				}
			default:
				if eff.RIn > 0 {
					if eff.RIn > ar.lo {
						addV(pc, fmt.Sprintf("return stack may underflow: %s needs %d, height may be %d",
							op, eff.RIn, ar.lo))
					} else if ps.framed && eff.RIn > st.r.lo {
						addV(pc, fmt.Sprintf("%s may reach the word's return address (frame height may be %d)",
							op, st.r.lo))
					}
				}
			}
			if rpeak > a.rcap {
				addV(pc, rOver)
			}
			maxR = max(maxR, rpeak)

			// Falling off the end of the code: any op whose successor
			// set includes pc+1 == len(code). (A last-pc OpCall is the
			// out-of-range return address flagged above.)
			switch op {
			case OpBranch, OpExit, OpHalt, OpCall:
			default:
				if pc+1 >= n {
					addV(pc, "execution may fall off the end of the code")
				}
			}
		}
	}

	// Several contexts can report the same violation; sort, then keep
	// one of each.
	slices.SortFunc(f.Violations, func(x, y Violation) int {
		if c := cmp.Compare(x.PC, y.PC); c != 0 {
			return c
		}
		return strings.Compare(x.Msg, y.Msg)
	})
	f.Violations = slices.Compact(f.Violations)
	f.MaxDepth, f.MaxRDepth = maxD, maxR
	f.Proved = len(f.Violations) == 0
}
