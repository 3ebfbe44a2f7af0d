package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"stackcache/internal/artifact"
	"stackcache/internal/core"
	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/service"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// span is one timed call. Spans of one replayed request share req, so
// the client round trip joins the in-process calls made for the same
// request.
type span struct {
	name, tag  string
	parent     int // id of the enclosing span; 0 for a root
	req        int // request id; 0 outside the replay
	start, end time.Duration
}

// tracer keeps spans in memory; ids are 1-based indexes into spans.
// It is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<15)} }

func (t *tracer) begin(name, tag string, parent, req int) int {
	t.spans = append(t.spans, span{name: name, tag: tag, parent: parent, req: req, start: time.Since(t.epoch)})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].end = time.Since(t.epoch) }

// self returns every span's duration minus the part of it that its
// children's intervals cover.
func (t *tracer) self() []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range t.spans {
		if s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		iv := kids[i+1]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := time.Duration(0), s.start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// durations returns the durations of the spans named name, only those
// tagged tag unless tag is empty.
func (t *tracer) durations(name, tag string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && (tag == "" || s.tag == tag) {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// byReq returns the durations of the replay's spans named name, by
// request id.
func (t *tracer) byReq(name string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.name == name && s.req > 0 {
			out[s.req] = s.end - s.start
		}
	}
	return out
}

// med is the median of ds.
func med(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sortDurations(s)
	return quantile(s, 0.5)
}

// sumOfMedians is Σ over the paper programs of the median duration of
// the spans named name for that program.
func (t *tracer) sumOfMedians(name string) time.Duration {
	var sum time.Duration
	for _, w := range workloads.Suite() {
		sum += med(t.durations(name, w.Name))
	}
	return sum
}

// exactCounts collects the deterministic per-layer counts. Every count
// is computed at least twice; set records the first value and a
// mismatch for any later value that differs.
type exactCounts struct {
	v        map[string]float64
	unit     map[string]string
	mismatch []string
}

func (e *exactCounts) set(name, unit string, v float64) {
	if old, ok := e.v[name]; ok && old != v {
		e.mismatch = append(e.mismatch, fmt.Sprintf("%s: %v then %v", name, old, v))
		return
	}
	e.v[name], e.unit[name] = v, unit
}

// layerReps is how many times each in-process layer call is timed;
// the median is reported.
const layerReps = 5

// replayLen is the number of requests a traced run replays from the
// front of the workload's stream.
var replayLen = map[string]int{"paper-exec": 64, "tiny-rpc": 2000, "program-churn": 400}

// replaySeconds bounds the untraced replay, which normally takes a few
// seconds; a replay that does not finish in time fails the run.
const replaySeconds = 120

// tracedRun is a traced run's outcome.
type tracedRun struct {
	metrics           map[string]metric
	attempted, failed int
	tr                *tracer
	selfT             []time.Duration
}

// replayItems returns the first n requests of the stream, cycling a
// shorter one.
func replayItems(stream []request, n int) []request {
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream[i%len(stream)])
	}
	return out
}

// artifactCounts reads the artifact-store tier counters off a scrape.
func artifactCounts(p promSamples) map[string]float64 {
	a := func(stage, outcome string) float64 {
		return p[`vmd_artifact_total{stage="`+stage+`",outcome="`+outcome+`"}`]
	}
	return map[string]float64{
		"artifact.memory_hits":      a("unit", "memory_hit"),
		"artifact.disk_hits":        a("unit", "disk_hit"),
		"artifact.misses":           a("unit", "miss"),
		"artifact.evictions":        a("unit", "evicted"),
		"artifact.persisted":        a("persist", "ok"),
		"artifact.optimize_refused": a("optimize", "refused"),
	}
}

func runTraced(opt options, w workload) (*tracedRun, error) {
	n := replayLen[w.name]
	pool, stream, err := w.build(opt.seed, n)
	if err != nil {
		return nil, err
	}
	items := replayItems(stream, n)
	exact := &exactCounts{v: make(map[string]float64), unit: make(map[string]string)}
	out := &tracedRun{metrics: make(map[string]metric), tr: newTracer()}
	tr := out.tr
	failed := make([]bool, n)
	fail := func(i int, why string) {
		if !failed[i] {
			fmt.Fprintf(os.Stderr, "vmbench: request %d: %s\n", i+1, why)
		}
		failed[i] = true
	}

	// Untraced replay on its own fresh vmd: the baseline for the
	// tracing overhead.
	d, _, err := launch(opt, w, pool)
	if err != nil {
		return nil, err
	}
	if err := d.checkEngines(servedEngines); err != nil {
		d.stop()
		return nil, err
	}
	plain, scrape, err := measure(d, items, replaySeconds, true)
	d.stop()
	if err != nil {
		return nil, err
	}
	if plain.attempted != n {
		return nil, fmt.Errorf("untraced replay sent %d of %d requests in %ds", plain.attempted, n, replaySeconds)
	}
	if plain.failed > 0 {
		fmt.Fprintf(os.Stderr, "vmbench: %d untraced requests failed; first: %s\n", plain.failed, plain.firstErr)
	}
	for k, v := range artifactCounts(scrape) {
		exact.set(k, "count", v)
	}

	// Traced replay: a second fresh vmd, and an in-process service
	// configured like it, fed the same requests in the same order.
	d, _, err = launch(opt, w, pool)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	dir, err := workDir(filepath.Join(opt.work, "inproc-"+w.name))
	if err != nil {
		return nil, err
	}
	cfg := service.Config{Workers: workers(), CacheSize: w.cache, Quicken: true, Optimize: true}
	if w.disk {
		cfg.CacheDir = dir
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	if w.warm {
		for _, src := range pool {
			if _, _, err := svc.Compile(src); err != nil {
				return nil, fmt.Errorf("in-process warm-up: %w", err)
			}
		}
	}
	store := artifact.NewStore(artifact.Config{MaxUnits: 1 << 16, Quicken: true, Optimize: true})
	before, err := d.metrics()
	if err != nil {
		return nil, err
	}
	classes := make(map[string]int)
	hit := make(map[int]bool) // ids of requests whose service.Run found the program cached
	for i := range items {
		it, id := &items[i], i+1
		tag := it.Engine + "/" + it.Program
		root := tr.begin("request", tag, 0, id)

		s := tr.begin("vmd.roundtrip", tag, root, id)
		_, class, bad, why := d.verdict(it)
		tr.end(s)
		classes[class]++
		if bad {
			fail(i, "vmd: "+why)
		}

		s = tr.begin("service.Run", tag, root, id)
		resp, err := svc.Run(context.Background(), service.Request{Source: it.Source, Engine: it.Engine, Args: it.Args})
		tr.end(s)
		if err != nil {
			fail(i, "in-process service: "+err.Error())
		} else if got := (outcome{resp.Output, resp.Stack}); !got.equal(*it.Want) {
			fail(i, fmt.Sprintf("in-process service: got %q %v, want %q %v", got.Output, got.Stack, it.Want.Output, it.Want.Stack))
		} else {
			hit[id] = resp.CacheHit
		}

		s = tr.begin("service.lookup", tag, root, id)
		_, _, err = svc.Compile(it.Source)
		tr.end(s)
		if err != nil {
			fail(i, "in-process lookup: "+err.Error())
		}

		got, _, err := runServed(tr, store, it.Source, it.Engine, it.Args, tag, root, id)
		if err != nil {
			fail(i, "engine: "+err.Error())
		} else if !got.equal(*it.Want) {
			fail(i, fmt.Sprintf("engine: got %q %v, want %q %v", got.Output, got.Stack, it.Want.Output, it.Want.Stack))
		}
		tr.end(root)
	}
	after, err := d.metrics()
	if err != nil {
		return nil, err
	}
	if err := crossCheck(after.delta(before), len(items), classes); err != nil {
		return nil, err
	}
	for k, v := range artifactCounts(after) {
		exact.set(k, "count", v)
	}
	a := svc.Stats().Artifact
	for k, v := range map[string]int64{
		"artifact.memory_hits": a.MemoryHits, "artifact.disk_hits": a.DiskHits, "artifact.misses": a.Misses,
		"artifact.evictions": a.Evictions, "artifact.persisted": a.Persisted, "artifact.optimize_refused": a.OptimizeRefused,
	} {
		exact.set(k, "count", float64(v))
	}
	dm := after.delta(before)
	hits, misses := dm["vmd_cache_hits_total"], dm["vmd_cache_misses_total"]
	out.metrics["service.cache_hit_ratio"] = metric{hits / max(hits+misses, 1), "ratio"}

	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	rtt, run, look, eng := tr.byReq("vmd.roundtrip"), tr.byReq("service.Run"), tr.byReq("service.lookup"), tr.byReq("engine.Run")
	var httpOver, svcOver, runs []time.Duration
	for id, r := range rtt {
		httpOver = append(httpOver, r-run[id])
		runs = append(runs, run[id])
		// The lookup span is a repeat call, so always a memory hit, and
		// engine.Run excludes acquisition: the difference is service
		// overhead only where Run's own lookup was a hit too. On
		// program-churn that leaves the resident re-uses.
		if hit[id] {
			svcOver = append(svcOver, run[id]-look[id]-eng[id])
		}
	}
	sortDurations(runs)
	out.metrics["vmd.http_overhead_us"] = metric{us(med(httpOver)), "us"}
	out.metrics["service.overhead_us"] = metric{us(med(svcOver)), "us"}
	out.metrics["service.run_us.p50"] = metric{us(quantile(runs, 0.5)), "us"}
	out.metrics["service.run_us.p99"] = metric{us(quantile(runs, 0.99)), "us"}
	out.metrics["trace.overhead_us"] = metric{us(med(tr.durations("vmd.roundtrip", "")) - med(plain.lat)), "us"}

	if err := layerTimings(opt, tr, exact, out.metrics); err != nil {
		return nil, err
	}
	if err := modelCounts(exact); err != nil {
		return nil, err
	}
	key, err := codeKey(opt.vmd)
	if err != nil {
		return nil, err
	}
	if err := exact.record(exactFile(opt.work, w.name, opt.seed, key)); err != nil {
		return nil, err
	}
	if len(exact.mismatch) > 0 {
		return nil, fmt.Errorf("deterministic counts disagree between computations: %s", strings.Join(exact.mismatch, "; "))
	}
	for k, v := range exact.v {
		out.metrics[k] = metric{v, exact.unit[k]}
	}
	out.attempted = 2 * n
	for _, f := range failed {
		if f {
			out.failed++
		}
	}
	out.failed += plain.failed
	out.selfT = tr.self()
	return out, nil
}

// runServed runs src as vmd serves it (optimized, quickened, analysed
// through an artifact store) on the named engine, inside an engine.Run
// span, and returns what the program left.
func runServed(tr *tracer, store *artifact.Store, src, name string, args []vm.Cell, tag string, parent, req int) (outcome, int64, error) {
	u, _, err := store.GetOrBuild(artifact.SourceHash("", src), func() (*vm.Program, error) { return forth.Compile(src) })
	if err != nil {
		return outcome{}, 0, err
	}
	eng, ok := engine.Lookup(name)
	if !ok {
		return outcome{}, 0, fmt.Errorf("no engine %q", name)
	}
	if p, ok := eng.(engine.Preparer); ok {
		if err := p.Prepare(u); err != nil {
			return outcome{}, 0, err
		}
	}
	m := interp.NewMachine(u.Prog)
	if err := m.ApplySpec(interp.ExecSpec{MaxSteps: refMaxSteps, Args: args, Facts: u.Facts()}); err != nil {
		return outcome{}, 0, err
	}
	s := tr.begin("engine.Run", tag, parent, req)
	err = eng.Run(m)
	tr.end(s)
	if err != nil {
		return outcome{}, 0, err
	}
	return outcome{Output: m.Out.String(), Stack: append([]vm.Cell{}, m.Stack[:m.SP]...)}, m.Steps, nil
}

// layerTimings times each layer's public functions on the four paper
// programs and records their deterministic counts.
func layerTimings(opt options, tr *tracer, exact *exactCounts, out map[string]metric) error {
	compiledEng, _ := engine.Lookup("compiled")
	prep, ok := compiledEng.(engine.Preparer)
	if !ok {
		return errors.New("engine compiled has no Prepare step")
	}
	cfg := artifact.Config{Quicken: true, Optimize: true}
	for _, w := range workloads.Suite() {
		want, _, err := reference(w.Source, nil)
		if err != nil {
			return err
		}
		hash := artifact.SourceHash("", w.Source)
		for r := 0; r < layerReps; r++ {
			if cfg.Dir, err = workDir(filepath.Join(opt.work, "layers")); err != nil {
				return err
			}
			root := tr.begin("acquire", w.Name, 0, 0)
			s := tr.begin("artifact.GetOrBuild.miss", w.Name, root, 0)
			u, oc, err := artifact.NewStore(cfg).GetOrBuild(hash, func() (*vm.Program, error) {
				c := tr.begin("forth.Compile", w.Name, s, 0)
				defer tr.end(c)
				return forth.Compile(w.Source)
			})
			tr.end(s)
			if err != nil || oc != artifact.Miss {
				return fmt.Errorf("%s: fresh store: outcome %v, err %v", w.Name, oc, err)
			}
			exact.set("vm.code_len."+w.Name, "count", float64(len(u.Prog.Code)))
			exact.set("vm.quickened_ops."+w.Name, "count", float64(u.QuickenedOps))
			for pass := vm.OptPass(0); pass < vm.NumOptPasses; pass++ {
				exact.set("vm.optimized_ops."+pass.String()+"."+w.Name, "count", float64(u.OptimizedOps[pass]))
			}
			proved := 0.0
			if u.Facts().Proved {
				proved = 1
			}
			exact.set("vm.proved."+w.Name, "count", proved)

			warm := artifact.NewStore(cfg)
			noBuild := func() (*vm.Program, error) { return nil, errors.New("built although the disk tier holds it") }
			for _, tier := range []artifact.Outcome{artifact.DiskHit, artifact.MemoryHit} {
				s = tr.begin("artifact.GetOrBuild."+tier.String(), w.Name, root, 0)
				u, oc, err = warm.GetOrBuild(hash, noBuild)
				tr.end(s)
				if err != nil || oc != tier {
					return fmt.Errorf("%s: want %v, got %v (err %v)", w.Name, tier, oc, err)
				}
			}
			s = tr.begin("engine.Prepare", w.Name, root, 0)
			err = prep.Prepare(u)
			tr.end(s)
			tr.end(root)
			if err != nil {
				return fmt.Errorf("%s: compiled prepare: %w", w.Name, err)
			}

			if err := stages(tr, w); err != nil {
				return err
			}
		}

		// Execution as served: every repetition on both engines must
		// reproduce the reference in the same number of steps.
		store := artifact.NewStore(artifact.Config{Quicken: true, Optimize: true})
		for _, e := range servedEngines {
			// The replay tags its spans engine/program too, and on
			// program-churn those are one-pass variants of the same
			// programs; a tag of its own keeps them out of the median.
			tag := "layer/" + e + "/" + w.Name
			for r := 0; r < layerReps; r++ {
				got, steps, err := runServed(tr, store, w.Source, e, nil, tag, 0, 0)
				if err != nil {
					return fmt.Errorf("%s: %w", tag, err)
				}
				if !got.equal(want) {
					return fmt.Errorf("%s: got %q, want %q", tag, got.Output, want.Output)
				}
				exact.set("engine.steps."+w.Name, "count", float64(steps))
			}
			ns := float64(med(tr.durations("engine.Run", tag))) / exact.v["engine.steps."+w.Name]
			out["engine.ns_per_step."+e+"."+w.Name] = metric{ns, "ns"}
		}
	}
	us := func(name string) float64 { return float64(tr.sumOfMedians(name)) / 1e3 }
	for name, span := range map[string]string{
		"forth.compile_us": "forth.Compile", "vm.verify_us": "vm.Verify", "vm.optimize_us": "vm.Optimize",
		"vm.check_translation_us": "vm.CheckTranslation", "vm.quicken_us": "vm.Quicken", "vm.analyze_us": "vm.Analyze",
		"vm.encode_us": "vm.Encode", "vm.decode_us": "vm.Decode",
		"artifact.miss_us": "artifact.GetOrBuild.miss", "artifact.disk_hit_us": "artifact.GetOrBuild.disk_hit",
		"artifact.memory_hit_us": "artifact.GetOrBuild.memory_hit", "engine.prepare_us.compiled": "engine.Prepare",
	} {
		out[name] = metric{us(span), "us"}
	}
	return nil
}

// stages times the pipeline one public function at a time, each under
// its own span.
func stages(tr *tracer, w workloads.Workload) error {
	root := tr.begin("stages", w.Name, 0, 0)
	defer tr.end(root)
	var p, q *vm.Program
	var opt *vm.OptResult
	var img []byte
	var err error
	for _, st := range []struct {
		name string
		f    func() error
	}{
		{"forth.Compile", func() error { p, err = forth.Compile(w.Source); return err }},
		{"vm.Verify", func() error { return vm.Verify(p) }},
		{"vm.Optimize", func() error { opt = vm.Optimize(p); return nil }},
		// Like the artifact store, serve the rewrite only when the
		// validator certifies it; a refusal is an outcome, not an error.
		{"vm.CheckTranslation", func() error {
			q = p
			if opt.Changed && vm.CheckTranslation(p, opt.Prog) == nil {
				q = opt.Prog
			}
			return nil
		}},
		{"vm.Quicken", func() error { q, _ = vm.Quicken(q); return nil }},
		{"vm.Analyze", func() error { vm.Analyze(q); return nil }},
		{"vm.Encode", func() error { img, err = vm.Encode(q); return err }},
		{"vm.Decode", func() error { _, err = vm.Decode(img); return err }},
	} {
		s := tr.begin(st.name, w.Name, root, 0)
		err := st.f()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s %s: %w", st.name, w.Name, err)
		}
	}
	return nil
}

// modelCounts runs the paper's cost model (RunCounted on the static and
// dynamic engines) twice over each paper program.
func modelCounts(exact *exactCounts) error {
	for _, w := range workloads.Suite() {
		p, err := forth.Compile(w.Source)
		if err != nil {
			return err
		}
		for _, name := range []string{"static", "dynamic"} {
			e, _ := engine.Lookup(name)
			ce, ok := e.(engine.CountingEngine)
			if !ok {
				return fmt.Errorf("engine %s does not count the cost model", name)
			}
			for r := 0; r < 2; r++ {
				m := interp.NewMachine(p)
				if err := m.ApplySpec(interp.ExecSpec{MaxSteps: refMaxSteps}); err != nil {
					return err
				}
				c, err := ce.RunCounted(m)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", name, w.Name, err)
				}
				// Fig. 26 reads dynamic caching by its access cost and
				// static caching net of the dispatches it removes.
				cycles := c.AccessPerInstruction(core.DefaultCost)
				if name == "static" {
					cycles = c.NetPerInstruction(core.DefaultCost)
				}
				sfx := "." + name + "." + w.Name
				exact.set("model.cycles_per_inst"+sfx, "cycles/inst", cycles)
				for k, v := range map[string]int64{
					"loads": c.Loads, "stores": c.Stores, "moves": c.Moves, "sp_updates": c.Updates, "dispatches": c.Dispatches,
				} {
					exact.set("model."+k+"_per_inst"+sfx, "1/inst", c.PerInstruction(float64(v)))
				}
			}
		}
	}
	return nil
}

// codeKey is a digest of the code whose counts a traced run gates: the
// vmd binary and this command's own executable. Runs of other code,
// such as the parent of a change that rightly alters a count, keep
// their records under other keys.
func codeKey(vmdBin string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, f := range []string{vmdBin, self} {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("digest of the code under test: %w", err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// exactFile is where the counts of a traced run of the given workload,
// seed and code are recorded.
func exactFile(work, workload string, seed int64, key string) string {
	return filepath.Join(work, "exact", workload+"-seed"+strconv.FormatInt(seed, 10)+"-"+key+".json")
}

// record compares the counts with those an earlier traced run left at
// path, or leaves them there. exactFile names the path after the code,
// so only runs of the same code meet there.
func (e *exactCounts) record(path string) error {
	if b, err := os.ReadFile(path); err == nil {
		var old map[string]float64
		if err := json.Unmarshal(b, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for k, v := range old {
			if cur, ok := e.v[k]; !ok || cur != v {
				e.mismatch = append(e.mismatch, fmt.Sprintf("%s: %v in an earlier run, %v now", k, v, cur))
			}
		}
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.Marshal(e.v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// moves says which end-to-end metric, on which workload, each group of
// per-layer metrics should move.
var moves = []struct{ prefix, moves string }{
	{"vmd.", "latency_p50_ms, req_per_s on tiny-rpc"},
	{"service.cache_hit_ratio", "latency_p50_ms, req_per_s on program-churn"},
	{"service.", "latency_p50_ms, req_per_s on tiny-rpc"},
	{"artifact.", "latency_p50_ms, req_per_s on program-churn"},
	{"forth.", "latency_p50_ms, req_per_s on program-churn"},
	{"vm.", "latency_p50_ms, req_per_s on program-churn"},
	{"engine.ns_per_step.", "latency_p50_ms, req_per_s on paper-exec"},
	{"engine.prepare_us.", "latency_p50_ms on program-churn"},
	{"engine.steps.", "latency_p50_ms on paper-exec"},
	{"model.", "none: no workload serves the cost-model engines"},
	{"trace.", "none: tracing cost, not system cost"},
}

func movesOf(name string) string {
	for _, m := range moves {
		if strings.HasPrefix(name, m.prefix) {
			return m.moves
		}
	}
	return ""
}

func (t *tracedRun) print(w io.Writer, wl workload) {
	fmt.Fprintf(w, "traced run of %s: %d requests replayed on one connection, untraced then traced\n", wl.name, t.attempted/2)
	fmt.Fprintf(w, "%-30s %8s %12s %12s\n", "span", "count", "p50_us", "self_p50_us")
	type agg struct{ dur, self []time.Duration }
	by := make(map[string]*agg)
	var names []string
	for i, s := range t.tr.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
			names = append(names, s.name)
		}
		a.dur = append(a.dur, s.end-s.start)
		a.self = append(a.self, t.selfT[i])
	}
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-30s %8d %12.2f %12.2f\n", n, len(a.dur), float64(med(a.dur))/1e3, float64(med(a.self))/1e3)
	}
	keys := make([]string, 0, len(t.metrics))
	for k := range t.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-44s %16s %-12s %s\n", "per-layer metric", "value", "unit", "should move")
	for _, k := range keys {
		fmt.Fprintf(w, "%-44s %16.4f %-12s %s\n", k, t.metrics[k].Value, t.metrics[k].Unit, movesOf(k))
	}
}
