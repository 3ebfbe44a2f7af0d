package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"stackcache/internal/vm"
)

// reply is the part of a /run reply the benchmark checks.
type reply struct {
	Output string    `json:"output"`
	Stack  []vm.Cell `json:"stack"`
	Class  string    `json:"class"`
}

// classTransport marks a request that got no HTTP reply at all.
const classTransport = "transport"

// verdict sends one request and judges it against its reference. It
// returns the round trip, the error class vmd reported ("ok" on 200)
// and whether the reply failed: a transport error, a non-200 status or
// an output or stack that differs from the reference.
func (d *daemon) verdict(req *request) (rtt time.Duration, class string, failed bool, why string) {
	b := req.body()
	start := time.Now()
	status, body, err := d.post("/run", b)
	rtt = time.Since(start)
	if err != nil {
		return rtt, classTransport, true, err.Error()
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return rtt, classTransport, true, "bad reply JSON: " + err.Error()
	}
	if status != http.StatusOK {
		return rtt, r.Class, true, fmt.Sprintf("status %d: %s", status, body)
	}
	if got := (outcome{Output: r.Output, Stack: r.Stack}); !got.equal(*req.Want) {
		return rtt, "ok", true, fmt.Sprintf("%s on %s: got output %q stack %v, want %q %v",
			req.Program, req.Engine, got.Output, got.Stack, req.Want.Output, req.Want.Stack)
	}
	return rtt, "ok", false, ""
}

// loadResult is one closed-loop window.
type loadResult struct {
	lat       []time.Duration // every attempted request's round trip
	at        []time.Duration // when it completed, from the window's start
	bad       []bool          // whether it failed
	probes    []sample        // host-speed probes taken between requests
	attempted int
	failed    int
	classes   map[string]int
	window    time.Duration
	exhausted bool   // a finite stream ran out before the window closed
	firstErr  string // first failure, for the report
}

// sample is one host-speed probe: when it ended, from the window's
// start, how long it took, and how much time the hypervisor had stolen
// from each of the host's vCPUs by then.
type sample struct{ at, took, steal time.Duration }

// closedLoop sends the stream's requests one at a time, each when the
// previous reply is in, until the deadline, and probes the host's
// speed between two requests at least every probeEvery. A finite
// stream (stop=true) ends the window early; a cycling one wraps.
func closedLoop(d *daemon, stream []request, seconds float64, stop bool) loadResult {
	res := loadResult{classes: make(map[string]int), lat: make([]time.Duration, 0, 1<<14)}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	probed := -probeEvery // the first probe comes before the first request
	for i := 0; time.Now().Before(deadline); i++ {
		if i == len(stream) {
			if stop {
				res.exhausted = true
				break
			}
			i = 0
		}
		if now := time.Since(start); now-probed >= probeEvery {
			took := probe()
			probed = now + took
			res.probes = append(res.probes, sample{probed, took, stolen()})
		}
		rtt, class, failed, why := d.verdict(&stream[i])
		res.lat = append(res.lat, rtt)
		res.at = append(res.at, time.Since(start))
		res.bad = append(res.bad, failed)
		res.classes[class]++
		if failed {
			res.failed++
			if res.firstErr == "" {
				res.firstErr = why
			}
		}
	}
	res.window = time.Since(start)
	res.attempted = len(res.lat)
	return res
}

// sliceDur is the length of one time slice of the measured window.
const sliceDur = time.Second

// windowStats are a window's figures, as measured and scaled to the
// reference host speed.
type windowStats struct {
	rate, p50, p95, p99     float64 // scaled: successful requests per second; round trip in ms
	rawRate, rawP50, rawP99 float64 // over the whole window, as measured
	speed                   float64 // median probe time over probeRef: above 1, the host ran slower
	steal                   float64 // share of the window the hypervisor kept a vCPU from running
	samples, kept, slices   int     // round trips the quantiles are taken over; slices kept, whole slices
}

// stats returns the window's figures over its whole slices of
// sliceDur. On a shared host other tenants slow the same code for tens
// of seconds at a time (by up to 1.8x on a 2-vCPU Intel Xeon VM), and
// whole runs land in such phases, in two ways. Contention for caches
// and cores makes the same instructions slower, in CPU time and wall
// time alike: the probes taken in a slice measure that. And the
// hypervisor stops the vCPUs for a share of the time, its steal, which
// a probe of a millisecond rarely meets but a chain of requests does:
// the steal counter read at each probe measures that. Every figure of
// a slice is scaled to the reference speed by the median probe time
// over probeRef, divided by one minus the slice's steal share: a round
// trip is divided by the factor, the slice's successful requests per
// second multiplied. Bursts the two miss still slow some slices, so
// the slower half by scaled rate is left out. The rate is the median
// over the kept slices, the quantiles are taken over their scaled
// round trips. A faster program moves every slice; the probes and the
// steal counter do not move with it. Completions after the last whole
// slice are left out; a window shorter than a slice, far below any
// configured run, is one slice.
func (r loadResult) stats() windowStats {
	slices := max(int(r.window/sliceDur), 1)
	span := min(sliceDur, r.window)
	slice := func(at time.Duration) int { return int(at / sliceDur) }
	byslice := make([][]sample, slices)
	for _, p := range r.probes {
		if s := slice(p.at); s < slices {
			byslice[s] = append(byslice[s], p)
		}
	}
	all := slowdown(r.probes)
	factor := make([]float64, slices)
	for s, ps := range byslice {
		if len(ps) < 2 {
			factor[s] = all // a slice one stall filled has too few probes of its own
		} else {
			factor[s] = slowdown(ps)
		}
	}
	ok := make([]float64, slices)
	var raw []float64
	for i, at := range r.at {
		if s := slice(at); s < slices {
			raw = append(raw, float64(r.lat[i]))
			if !r.bad[i] {
				ok[s]++
			}
		}
	}
	rates := make([]float64, slices)
	order := make([]int, slices)
	var n float64
	for s := range ok {
		rates[s] = ok[s] * factor[s] / span.Seconds()
		order[s] = s
		n += ok[s]
	}
	sort.SliceStable(order, func(a, b int) bool { return rates[order[a]] > rates[order[b]] })
	kept := (slices + 1) / 2
	keep := make([]bool, slices)
	var keptRates []float64
	for _, s := range order[:kept] {
		keep[s] = true
		keptRates = append(keptRates, rates[s])
	}
	var lat []float64
	for i, at := range r.at {
		if s := slice(at); s < slices && keep[s] {
			lat = append(lat, float64(r.lat[i])/factor[s])
		}
	}
	sort.Float64s(lat)
	sort.Float64s(raw)
	return windowStats{
		rate: median(keptRates), p50: quantile(lat, 0.50) / 1e6, p95: quantile(lat, 0.95) / 1e6, p99: quantile(lat, 0.99) / 1e6,
		rawRate: n / (time.Duration(slices) * span).Seconds(), rawP50: quantile(raw, 0.50) / 1e6, rawP99: quantile(raw, 0.99) / 1e6,
		speed: probeSpeed(r.probes), steal: stealShare(r.probes), samples: len(lat), kept: kept, slices: slices,
	}
}

// slowdown is how much slower than the reference the host ran over
// the probes ps: the median probe time over probeRef, over the share
// of the time the vCPUs were left to run.
func slowdown(ps []sample) float64 {
	return probeSpeed(ps) / (1 - stealShare(ps))
}

// probeSpeed is the median probe time of ps over probeRef.
func probeSpeed(ps []sample) float64 {
	took := make([]float64, len(ps))
	for i, p := range ps {
		took[i] = float64(p.took)
	}
	if len(took) == 0 {
		return 1
	}
	return median(took) / float64(probeRef)
}

// maxSteal caps the steal share a slice is corrected for; past it the
// correction would say more than the counter's resolution does.
const maxSteal = 0.5

// stealShare is the share of the time between the first and the last
// of ps that the hypervisor kept a vCPU from running, 0 for fewer than
// two probes.
func stealShare(ps []sample) float64 {
	if len(ps) < 2 {
		return 0
	}
	first, last := ps[0], ps[len(ps)-1]
	if last.at <= first.at {
		return 0
	}
	return min(max(float64(last.steal-first.steal)/float64(last.at-first.at), 0), maxSteal)
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile[T time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}

// measure runs a closed-loop window on d between two /metrics scrapes
// and cross-checks what vmd counted against what the client saw. It
// returns the window and the second scrape.
func measure(d *daemon, stream []request, seconds float64, stop bool) (loadResult, promSamples, error) {
	before, err := d.metrics()
	if err != nil {
		return loadResult{}, nil, err
	}
	res := closedLoop(d, stream, seconds, stop)
	after, err := d.metrics()
	if err != nil {
		return res, nil, err
	}
	return res, after, crossCheck(after.delta(before), res.attempted, res.classes)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setups is how many times a run starts vmd and warms it; setup_s is
// their median scaled to the reference speed, and the last start
// serves the measured window.
const setups = 11

// churnRate bounds program-churn's first sightings per second of
// window; the stream holds that many variants, so it outlasts the
// window with margin on the hardware it was tuned on. A run whose
// stream runs out fails.
const churnRate = 550

// options are the benchmark's run settings.
type options struct {
	vmd     string // vmd binary
	work    string // scratch directory for cache dirs and exact-count records
	seed    int64
	seconds float64
}

// vmdArgs is vmd's command line for w, with its cache directory.
func vmdArgs(w workload, cacheDir string) []string {
	args := []string{"-workers", strconv.Itoa(workers())}
	if w.cache > 0 {
		args = append(args, "-cache", strconv.Itoa(w.cache))
	}
	if w.disk {
		args = append(args, "-cachedir", cacheDir)
	}
	return args
}

// launch starts a fresh vmd for w (empty cache directory) and runs its
// warm-up, returning the time from exec to warm.
func launch(opt options, w workload, pool []string) (*daemon, time.Duration, error) {
	dir, err := workDir(filepath.Join(opt.work, "cache-"+w.name))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := startVMD(opt.vmd, vmdArgs(w, dir))
	if err != nil {
		return nil, 0, err
	}
	if w.warm {
		for _, src := range pool {
			if err := d.compile(src); err != nil {
				d.stop()
				return nil, 0, fmt.Errorf("warm-up /compile: %w", err)
			}
		}
	}
	return d, time.Since(start), nil
}

// runEndToEnd measures w's end-to-end metrics with tracing off.
func runEndToEnd(opt options, w workload) (map[string]metric, loadResult, error) {
	pool, stream, err := w.build(opt.seed, int(math.Ceil(churnRate*opt.seconds)))
	if err != nil {
		return nil, loadResult{}, err
	}

	// Each start is timed, and the host probed before it, so that
	// setup_s is scaled to the reference speed like every other time.
	var setupTimes []float64
	var probes []sample
	begin := time.Now()
	var d *daemon
	for i := 0; i < setups; i++ {
		took := probe()
		probes = append(probes, sample{time.Since(begin), took, stolen()})
		var up time.Duration
		d, up, err = launch(opt, w, pool)
		if err != nil {
			return nil, loadResult{}, err
		}
		setupTimes = append(setupTimes, up.Seconds())
		if i < setups-1 {
			d.stop()
		}
	}
	probes = append(probes, sample{time.Since(begin), probe(), stolen()})
	defer d.stop()
	if err := d.checkEngines(servedEngines); err != nil {
		return nil, loadResult{}, err
	}

	// The load generator keeps its footprint small so that vmd, not
	// the client, owns the machine: one P, so its goroutines do not
	// preempt vmd's workers on a two-CPU box, and a lazier GC, so its
	// own collections stall fewer round trips.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	res, _, err := measure(d, stream, opt.seconds, !w.warm)
	if err != nil {
		return nil, res, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, res, err
	}
	// A finite stream that runs out shortens the window, and a window
	// that ended early is not comparable with one that did not.
	if res.exhausted {
		return nil, res, fmt.Errorf("%s stream ran out after %d requests, before the window closed; raise churnRate", w.name, res.attempted)
	}

	st := res.stats()
	return map[string]metric{
		"setup_s":        {median(setupTimes) / slowdown(probes), "s"},
		"req_per_s":      {st.rate, "1/s"},
		"latency_p50_ms": {st.p50, "ms"},
		"latency_p95_ms": {st.p95, "ms"},
		"latency_p99_ms": {st.p99, "ms"},
		"error_rate":     {float64(res.failed) / float64(max(res.attempted, 1)), "ratio"},
		"peak_rss_mb":    {rss, "MiB"},
	}, res, nil
}
