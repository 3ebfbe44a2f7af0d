package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"

	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// refMaxSteps is the step budget of a reference run; it matches vmd's
// default per-request budget, so a program the reference can finish
// vmd can finish too.
const refMaxSteps = 1 << 24

// outcome is what a /run reply must carry: the printed output and the
// final data stack, bottom first.
type outcome struct {
	Output string
	Stack  []vm.Cell
}

func (o outcome) equal(p outcome) bool {
	if o.Output != p.Output || len(o.Stack) != len(p.Stack) {
		return false
	}
	for i := range o.Stack {
		if o.Stack[i] != p.Stack[i] {
			return false
		}
	}
	return true
}

// request is one /run call of a workload stream. Its wire body is
// marshalled when it is sent: program-churn's stream holds tens of
// thousands of requests over a few thousand-byte sources each, and
// bodies marshalled ahead would multiply the client's footprint.
type request struct {
	Program string // pool program name, for reports
	Source  string
	Engine  string
	Args    []vm.Cell
	Want    *outcome
}

// body is the request's /run body.
func (r *request) body() []byte {
	b, err := json.Marshal(struct {
		Source string    `json:"source"`
		Engine string    `json:"engine"`
		Args   []vm.Cell `json:"args,omitempty"`
	}{r.Source, r.Engine, r.Args})
	if err != nil {
		panic(err) // strings and integers always marshal
	}
	return b
}

// reference runs src on the switch engine over the plain compile (no
// quickening, no optimization) and returns what every engine and every
// cache tier must reproduce, with the step count.
func reference(src string, args []vm.Cell) (outcome, int64, error) {
	p, err := forth.Compile(src)
	if err != nil {
		return outcome{}, 0, err
	}
	eng, ok := engine.Lookup("switch")
	if !ok {
		return outcome{}, 0, fmt.Errorf("no switch engine registered")
	}
	m := interp.NewMachine(p)
	if err := m.ApplySpec(interp.ExecSpec{MaxSteps: refMaxSteps, Args: args}); err != nil {
		return outcome{}, 0, err
	}
	if err := eng.Run(m); err != nil {
		return outcome{}, 0, err
	}
	return outcome{Output: m.Out.String(), Stack: append([]vm.Cell{}, m.Stack[:m.SP]...)}, m.Steps, nil
}

// workload is one traffic mix. Every stream is a pure function of the
// seed; references are computed when the stream is built.
type workload struct {
	name  string
	cache int  // vmd -cache; 0 keeps vmd's default
	disk  bool // vmd runs with an empty -cachedir
	warm  bool // setup sends every pool program through /compile

	// build returns the workload's pool programs (the warm-up set) and
	// its request stream. n bounds the stream length where the stream
	// cannot cycle.
	build func(seed int64, n int) (pool []string, stream []request, err error)
}

// servedEngines are the engines every workload's requests name; a run
// refuses to start unless GET /engines lists them all.
var servedEngines = []string{"switch", "compiled"}

var workloadList = []workload{
	{name: "paper-exec", warm: true, build: paperStream},
	{name: "tiny-rpc", warm: true, build: tinyStream},
	{name: "program-churn", cache: churnCache, disk: true, build: churnStream},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// streamRand is the generator of a workload's stream.
func streamRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed * 1_000_003))
}

// blocks appends shuffled copies of the n combinations until the
// stream holds length items. Whole blocks keep every combination's
// share exact whatever the seed, so a seed changes the order of the
// requests and not the mix that the latency median is taken over.
func blocks(r *rand.Rand, n, length int, emit func(i int)) {
	for done := 0; done < length; {
		for _, i := range r.Perm(n) {
			emit(i)
			done++
		}
	}
}

// paperSlots is the number of requests in one paper-exec block: the
// eight program × engine combinations and a second copy of the first.
// With eight equal shares the median falls on the gap between the
// fourth and the fifth slowest combination, and a few requests more on
// one side of it in a slice moved latency_p50_ms by a third; with an
// odd number of slots the median lies inside one combination's
// latencies.
const paperSlots = 9

// paperLen is the cycle length of a paper-exec stream: 16 blocks.
const paperLen = 16 * paperSlots

func paperStream(seed int64, _ int) ([]string, []request, error) {
	suite := workloads.Suite()
	engines := servedEngines
	var pool []string
	want := make([]*outcome, len(suite))
	for i, w := range suite {
		o, _, err := reference(w.Source, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", w.Name, err)
		}
		want[i] = &o
		pool = append(pool, w.Source)
	}
	var stream []request
	blocks(streamRand(seed), paperSlots, paperLen, func(i int) {
		i %= len(suite) * len(engines)
		w := suite[i/len(engines)]
		stream = append(stream, request{Program: w.Name, Source: w.Source, Engine: engines[i%len(engines)], Want: want[i/len(engines)]})
	})
	return pool, stream, nil
}

// tinyProgram is a tiny-rpc program: a few µs of VM work that takes
// its inputs from the request's args.
type tinyProgram struct {
	name, src string
	args      func(r *rand.Rand) []vm.Cell
}

var tinyPrograms = []tinyProgram{
	{"add", ": main + . ;", func(r *rand.Rand) []vm.Cell { return []vm.Cell{r.Int63n(1e6), r.Int63n(1e6)} }},
	{"mul", ": main * . ;", func(r *rand.Rand) []vm.Cell { return []vm.Cell{r.Int63n(1e4), r.Int63n(1e4)} }},
	{"sum", ": main 0 swap 0 do i + loop . ;", func(r *rand.Rand) []vm.Cell { return []vm.Cell{1 + r.Int63n(32)} }},
	{"gcd", ": gcd begin dup while tuck mod repeat drop ; : main gcd . ;",
		func(r *rand.Rand) []vm.Cell { return []vm.Cell{1 + r.Int63n(1e5), 1 + r.Int63n(1e5)} }},
	{"stack", ": main swap over - ;", func(r *rand.Rand) []vm.Cell { return []vm.Cell{r.Int63n(1e3), r.Int63n(1e3)} }},
}

// tinyLen is the cycle length of a tiny-rpc stream.
const tinyLen = 1000

func tinyStream(seed int64, _ int) ([]string, []request, error) {
	engines := servedEngines
	var pool []string
	for _, p := range tinyPrograms {
		pool = append(pool, p.src)
	}
	var stream []request
	r := streamRand(seed)
	var err error
	blocks(r, len(tinyPrograms)*len(engines), tinyLen, func(i int) {
		p := tinyPrograms[i/len(engines)]
		args := p.args(r)
		o, _, rerr := reference(p.src, args)
		if rerr != nil && err == nil {
			err = fmt.Errorf("reference %s %v: %w", p.name, args, rerr)
		}
		stream = append(stream, request{Program: p.name, Source: p.src, Engine: engines[i%len(engines)], Args: args, Want: &o})
	})
	if err != nil {
		return nil, nil, err
	}
	return pool, stream, nil
}

// churnCache is vmd's -cache on program-churn: far below the variant
// pool, so re-used variants are evicted between uses.
const churnCache = 16

// Churn request mix, in blocks of churnSlots requests per engine: a
// first sighting builds a new variant through the whole pipeline; a
// recent re-use picks one of the last churnRecent first sightings,
// normally still resident; an old re-use picks a variant first seen
// more than churnOld first sightings ago, long evicted, so it comes
// back from the disk tier. The three kinds cost very different
// amounts, and latency_p50_ms lies inside the old re-uses' share; in
// whole shuffled blocks every second of the window carries the same
// mix, whatever the seed.
const (
	churnSlots  = 10
	churnNew    = 3 // first sightings per block
	churnRecent = 4 // recent re-uses per block; the rest are old
	churnWithin = 6 // a recent re-use is one of the last churnWithin first sightings
	churnOld    = 4 * churnCache
)

// mainLoop finds the repeat loop of a workload's main word.
var mainLoop = regexp.MustCompile(`(: main [^\n]*?)\b\d+ 0 do`)

// churnVariant derives a distinct program from a paper or micro
// source: main runs one pass instead of its repeat count, and salt is
// added to the printed result, so each variant has its own source, its
// own cache key and its own output.
func churnVariant(src string, salt int64) (string, error) {
	src = mainLoop.ReplaceAllString(src, "${1}1 0 do")
	i := strings.LastIndex(src, " . ;")
	if i < 0 {
		return "", fmt.Errorf("main does not end in \" . ;\"")
	}
	return src[:i] + fmt.Sprintf(" %d + . ;", salt) + src[i+len(" . ;"):], nil
}

// churnStream draws a stream with n first sightings and references
// every variant in it. New variants, and the variants old re-uses
// pick, take their bases in shuffled rounds over all bases. Salts are distinct by construction (k<<32
// plus a seeded low word), so variants of one base never share an
// output; outputs across bases are checked for collisions after the
// references are in.
func churnStream(seed int64, n int) ([]string, []request, error) {
	bases := workloads.All()
	engines := servedEngines
	r := streamRand(seed)
	type variant struct {
		name, src string
		want      *outcome
	}
	var seen []variant
	var stream []request
	newBase, oldBase := rounds(r, len(bases)), rounds(r, len(bases))
	byBase := make([][]int, len(bases)) // indices into seen, oldest first
	for len(seen) < n {
		for _, i := range r.Perm(churnSlots * len(engines)) {
			slot, eng := i%churnSlots, engines[i/churnSlots]
			var v variant
			switch {
			case slot < churnNew || len(seen) == 0:
				if len(seen) == n {
					continue // the stream holds n first sightings
				}
				bi := newBase()
				b := bases[bi]
				byBase[bi] = append(byBase[bi], len(seen))
				salt := int64(len(seen))<<32 | int64(r.Uint32())
				src, err := churnVariant(b.Source, salt)
				if err != nil {
					return nil, nil, fmt.Errorf("variant of %s: %w", b.Name, err)
				}
				v = variant{name: b.Name, src: src, want: new(outcome)}
				seen = append(seen, v)
			case slot < churnNew+churnRecent || len(seen) <= churnOld:
				lo := max(len(seen)-churnWithin, 0)
				v = seen[lo+r.Intn(len(seen)-lo)]
			default:
				// An old variant of the next base in its round, so
				// the re-uses carry the bases in the same shares as
				// the first sightings; until a base has an old
				// variant, any old variant.
				old := byBase[oldBase()]
				if k := sort.SearchInts(old, len(seen)-churnOld); k > 0 {
					v = seen[old[r.Intn(k)]]
				} else {
					v = seen[r.Intn(len(seen)-churnOld)]
				}
			}
			stream = append(stream, request{Program: v.name, Source: v.src, Engine: eng, Want: v.want})
		}
	}
	if err := parallel(len(seen), func(i int) error {
		o, _, err := reference(seen[i].src, nil)
		if err != nil {
			return fmt.Errorf("reference %s variant %d: %w", seen[i].name, i, err)
		}
		*seen[i].want = o
		return nil
	}); err != nil {
		return nil, nil, err
	}
	first := make(map[string]int, len(seen))
	for i, v := range seen {
		if j, dup := first[v.want.Output]; dup {
			return nil, nil, fmt.Errorf("churn variants %d and %d both print %q", j, i, v.want.Output)
		}
		first[v.want.Output] = i
	}
	return nil, stream, nil
}

// rounds returns a generator of 0..n-1 in shuffled rounds: every n
// draws hold each value once.
func rounds(r *rand.Rand, n int) func() int {
	var left []int
	return func() int {
		if len(left) == 0 {
			left = r.Perm(n)
		}
		i := left[0]
		left = left[1:]
		return i
	}
}

// parallel runs f(0..n-1) on runtime.NumCPU goroutines and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := f(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}
