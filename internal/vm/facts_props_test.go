package vm_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// randomCorpusSize is how many seeded random programs the analysis
// property tests draw. It is large enough to catch an analyzer whose
// join order follows map iteration: the map-based one this analyzer
// replaced gave two different results for several programs of this
// corpus on a typical pair of runs.
const randomCorpusSize = 20000

// randomProgram draws a structurally valid program: valid opcodes
// (superinstructions included), in-range branch, loop and call
// targets, small immediates and a random entry. Most draws are
// unproven; the ones with calls, loops and recursion are what make
// join order matter.
func randomProgram(r *rand.Rand) *vm.Program {
	n := 1 + r.Intn(40)
	code := make([]vm.Instr, n)
	for pc := range code {
		op := vm.Opcode(r.Intn(int(vm.NumOpcodes)))
		arg := vm.Cell(r.Intn(16) - 3)
		if vm.EffectOf(op).Arg == vm.ArgTarget {
			arg = vm.Cell(r.Intn(n))
		}
		code[pc] = vm.Instr{Op: op, Arg: arg}
	}
	return &vm.Program{Code: code, Entry: r.Intn(n), MemSize: 64}
}

// randomCorpus is the seeded corpus shared by the property tests.
func randomCorpus() []*vm.Program {
	r := rand.New(rand.NewSource(1))
	out := make([]*vm.Program, randomCorpusSize)
	for i := range out {
		out[i] = randomProgram(r)
	}
	return out
}

// workloadPrograms compiles every workload, plus the optimizer's
// validated rewrite of each one it changes.
func workloadPrograms(t *testing.T) (plain, rewritten map[string]*vm.Program) {
	t.Helper()
	plain, rewritten = map[string]*vm.Program{}, map[string]*vm.Program{}
	for _, w := range workloads.All() {
		p, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		plain[w.Name] = p
		if r := vm.Optimize(p); r.Changed {
			if err := vm.CheckTranslation(p, r.Prog); err != nil {
				t.Fatalf("%s: optimizer rewrite refused: %v", w.Name, err)
			}
			rewritten[w.Name] = r.Prog
		}
	}
	return plain, rewritten
}

// TestAnalyzeDeterministic requires Analyze to be a function of the
// program alone: two runs over the same program give identical facts,
// for every workload and every program of the random corpus.
func TestAnalyzeDeterministic(t *testing.T) {
	plain, rewritten := workloadPrograms(t)
	for _, set := range []map[string]*vm.Program{plain, rewritten} {
		for name, p := range set {
			if a, b := vm.Analyze(p), vm.Analyze(p); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: two analyses differ", name)
			}
		}
	}
	diff := 0
	for i, p := range randomCorpus() {
		if a, b := vm.Analyze(p), vm.Analyze(p); !reflect.DeepEqual(a, b) {
			if diff++; diff <= 5 {
				t.Errorf("random program %d: two analyses differ (proved %v/%v, max %d,%d / %d,%d)\n%s",
					i, a.Proved, b.Proved, a.MaxDepth, a.MaxRDepth, b.MaxDepth, b.MaxRDepth, vm.Disassemble(p))
			}
		}
	}
	if diff > 0 {
		t.Errorf("%d of %d random programs analyzed differently on two runs", diff, randomCorpusSize)
	}
}

// TestAnalyzeQuickenInvariant pins the fact the artifact pipeline's
// single analysis rests on: a superinstruction has its first
// constituent's effect, so quickening a program, or undoing it, leaves
// its facts exactly as they were.
func TestAnalyzeQuickenInvariant(t *testing.T) {
	plain, rewritten := workloadPrograms(t)
	check := func(name string, p *vm.Program) {
		t.Helper()
		want := vm.Analyze(p)
		if q, _ := vm.Quicken(p); !reflect.DeepEqual(vm.Analyze(q), want) {
			t.Errorf("%s: Analyze(Quicken(p)) differs from Analyze(p)", name)
		}
		if u := vm.Unquicken(p); !reflect.DeepEqual(vm.Analyze(u), want) {
			t.Errorf("%s: Analyze(Unquicken(p)) differs from Analyze(p)", name)
		}
	}
	quickened := 0
	for _, set := range []map[string]*vm.Program{plain, rewritten} {
		for name, p := range set {
			if _, n := vm.Quicken(p); n > 0 {
				quickened++
			}
			check(name, p)
		}
	}
	if quickened == 0 {
		t.Fatal("no workload has a superinstruction site; the test checks nothing")
	}
	for i, p := range randomCorpus() {
		check("random program "+strconv.Itoa(i), p)
	}
}
