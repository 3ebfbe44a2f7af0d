package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"stackcache/internal/service"
	"stackcache/internal/vm"
)

func bodies(t *testing.T, w workload, seed int64) string {
	t.Helper()
	_, stream, err := w.build(seed, 40)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	var out []string
	for _, r := range stream {
		out = append(out, string(r.body())+" => "+r.Want.Output)
	}
	return strings.Join(out, "\n")
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloadList {
		a, b, other := bodies(t, w, 7), bodies(t, w, 7), bodies(t, w, 8)
		if a != b {
			t.Errorf("%s: two builds from seed 7 differ", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

func TestChurnVariantsDistinct(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		_, stream, err := churnStream(seed, 60)
		if err != nil {
			t.Fatal(err)
		}
		byOutput := make(map[string]string)
		sources := make(map[string]bool)
		for _, r := range stream {
			if sources[r.Source] {
				continue
			}
			sources[r.Source] = true
			if r.Want.Output == "" {
				t.Fatalf("seed %d: variant of %s printed nothing", seed, r.Program)
			}
			if prev, dup := byOutput[r.Want.Output]; dup && prev != r.Source {
				t.Fatalf("seed %d: two variants print %q", seed, r.Want.Output)
			}
			byOutput[r.Want.Output] = r.Source
		}
		if len(sources) != 60 {
			t.Errorf("seed %d: %d distinct variant sources, want 60", seed, len(sources))
		}
	}
}

// fakeVMD serves /run from an in-process service with vmd's reply
// fields, so the reply check can be tested without the binary.
func fakeVMD(t *testing.T) *daemon {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Source string    `json:"source"`
			Engine string    `json:"engine"`
			Args   []vm.Cell `json:"args"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := svc.Run(context.Background(), service.Request{Source: req.Source, Engine: req.Engine, Args: req.Args})
		if err != nil {
			w.WriteHeader(http.StatusUnprocessableEntity)
			_ = json.NewEncoder(w).Encode(map[string]string{"class": service.Classify(err).String()})
			return
		}
		_ = json.NewEncoder(w).Encode(reply{Output: resp.Output, Stack: resp.Stack})
	}))
	t.Cleanup(srv.Close)
	return &daemon{base: srv.URL, client: srv.Client()}
}

func TestReferenceCheckCatchesCorruption(t *testing.T) {
	d := fakeVMD(t)
	_, stream, err := tinyStream(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range stream[:20] {
		if _, class, failed, why := d.verdict(&req); failed || class != "ok" {
			t.Fatalf("%s: correct reply judged failed: %s", req.Program, why)
		}
		bad := *req.Want
		bad.Output += "0"
		req.Want = &bad
		if _, _, failed, _ := d.verdict(&req); !failed {
			t.Fatalf("%s: corrupted expected output went unnoticed", req.Program)
		}
		bad = *req.Want
		bad.Stack = append(bad.Stack, 1)
		req.Want = &bad
		if _, _, failed, _ := d.verdict(&req); !failed {
			t.Fatalf("%s: corrupted expected stack went unnoticed", req.Program)
		}
	}
}

func TestMetricsParseAndCrossCheck(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	scrape := func() promSamples {
		var buf bytes.Buffer
		if err := service.WritePrometheus(&buf, svc.Stats()); err != nil {
			t.Fatal(err)
		}
		p, err := parseProm(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := scrape()
	for _, src := range []string{": main 1 2 + . ;", ": main 1 0 / . ;"} {
		_, _ = svc.Run(context.Background(), service.Request{Source: src, Engine: "switch"})
	}
	after := scrape()
	if _, ok := after[`vmd_exec_latency_seconds_count{engine="switch"}`]; !ok {
		t.Fatal("exec latency histogram not parsed")
	}
	d := after.delta(before)
	if err := crossCheck(d, 2, map[string]int{"ok": 1, "runtime": 1}); err != nil {
		t.Fatal(err)
	}
	if err := crossCheck(d, 2, map[string]int{"ok": 2}); err == nil {
		t.Fatal("cross-check accepted outcome counts vmd did not record")
	}
	if err := crossCheck(d, 3, map[string]int{"ok": 1, "runtime": 1}); err == nil {
		t.Fatal("cross-check accepted a request count vmd did not record")
	}
}

func TestMissingEngineRefused(t *testing.T) {
	list := []struct {
		Name string `json:"name"`
	}{{"switch"}, {"static"}}
	if err := missingEngines([]string{"switch"}, list); err != nil {
		t.Fatal(err)
	}
	if err := missingEngines([]string{"switch", "compiled"}, list); err == nil || !strings.Contains(err.Error(), "compiled") {
		t.Fatalf("missing engine not reported: %v", err)
	}
}

// TestPeakRSSIsTheChilds starts a small process from a client that
// holds a large heap: the peak resident set reported must be the
// child's, not the client's.
func TestPeakRSSIsTheChilds(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep command")
	}
	ballast := make([]byte, 96<<20)
	for i := range ballast {
		ballast[i] = 1 // make every page resident
	}
	d := &daemon{cmd: exec.Command(sleep, "30"), exited: make(chan struct{}), client: &http.Client{}}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	defer d.stop()
	rss, err := d.peakRSS()
	runtime.KeepAlive(ballast)
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 || rss >= 48 {
		t.Fatalf("peak RSS of sleep read as %.1f MiB with a 96 MiB client", rss)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "root", start: 0, end: 10 * ms},
		{name: "a", parent: 1, start: 1 * ms, end: 4 * ms},
		{name: "b", parent: 1, start: 3 * ms, end: 6 * ms}, // overlaps a
		{name: "c", parent: 3, start: 4 * ms, end: 5 * ms},
	}}
	want := []time.Duration{5 * ms, 3 * ms, 2 * ms, 1 * ms}
	for i, got := range tr.self() {
		if got != want[i] {
			t.Errorf("%s: self %v, want %v", tr.spans[i].name, got, want[i])
		}
	}
}

func TestExactGate(t *testing.T) {
	work := t.TempDir()
	run := func(key string, v float64) *exactCounts {
		e := &exactCounts{v: make(map[string]float64), unit: make(map[string]string)}
		e.set("engine.steps.gray", "count", v)
		e.set("engine.steps.gray", "count", v)
		if err := e.record(exactFile(work, "paper-exec", 1, key)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	if e := run("old", 42); len(e.mismatch) != 0 {
		t.Fatalf("first run: %v", e.mismatch)
	}
	if e := run("old", 42); len(e.mismatch) != 0 {
		t.Fatalf("same counts judged different: %v", e.mismatch)
	}
	if e := run("old", 43); len(e.mismatch) == 0 {
		t.Fatal("a count that changed between runs of the same code went unnoticed")
	}
	if e := run("new", 43); len(e.mismatch) != 0 {
		t.Fatalf("other code compared with an earlier version's counts: %v", e.mismatch)
	}
	e := &exactCounts{v: make(map[string]float64), unit: make(map[string]string)}
	e.set("vm.proved.gray", "count", 0)
	e.set("vm.proved.gray", "count", 1)
	if len(e.mismatch) != 1 {
		t.Fatalf("two computations that disagree: mismatches %v", e.mismatch)
	}
}

func TestScaledToReferenceSpeed(t *testing.T) {
	ms := time.Millisecond
	r := loadResult{window: 8 * time.Second}
	stealing := func(s int) bool { return s == 3 || s == 7 }
	// stolen is the steal counter at t: it runs at half speed through
	// the slices where the hypervisor halves the vCPUs' time.
	stolen := func(t time.Duration) time.Duration {
		var d time.Duration
		for s := 0; time.Duration(s)*time.Second < t; s++ {
			if stealing(s) {
				d += min(t-time.Duration(s)*time.Second, time.Second) / 2
			}
		}
		return d
	}
	for s := 0; s < 8; s++ {
		n, rtt, took := 1000, ms, probeRef
		switch {
		case s == 6:
			n, rtt = 200, 5*ms // a stall between two probes
		case stealing(s):
			n, rtt = 500, 2*ms
		case s%4 != 1:
			n, rtt, took = 500, 2*ms, 2*probeRef // a busy neighbour halved the host's speed
		}
		for i := 0; i < n; i++ {
			r.at = append(r.at, time.Duration(s)*time.Second+time.Duration(i+1)*time.Second/time.Duration(n+1))
			r.lat = append(r.lat, rtt)
			r.bad = append(r.bad, false)
		}
		for i := 0; i < 3; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i+1)*time.Second/4
			r.probes = append(r.probes, sample{at, took, stolen(at)})
		}
	}
	st := r.stats()
	if st.rate != 1000 || st.p50 != 1 || st.p99 != 1 || st.kept != 4 || st.slices != 8 || st.samples != 2500 {
		t.Fatalf("got %+v, want 1000/s, 1 ms, 1 ms over 2500 round trips in 4 of 8 slices", st)
	}
	if st.rawP50 != 2 || st.speed != 1 || st.steal <= 0 {
		t.Fatalf("as measured: p50 %v ms, host at %vx the reference time, steal %v; want 2 ms, 1x, some", st.rawP50, st.speed, st.steal)
	}
}
