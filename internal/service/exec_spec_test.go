package service

// Tests for the per-request ExecSpec surface (program arguments and
// memory overlays), the response-stack cap, and the Prometheus
// exposition of the metrics registry.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// TestArgsExecuteCachedProgram is the acceptance check for open
// program arguments: one cached program, two argument sets — the
// second request must hit the cache (no recompile; the key covers only
// the source) and produce a different result.
func TestArgsExecuteCachedProgram(t *testing.T) {
	s := mustService(t)
	src := ": main + . ;"

	r1, err := s.Run(context.Background(), Request{Source: src, Args: []vm.Cell{30, 12}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != "42 " || r1.CacheHit {
		t.Fatalf("first run: output %q hit %v, want %q on a miss", r1.Output, r1.CacheHit, "42 ")
	}
	r2, err := s.Run(context.Background(), Request{Source: src, Args: []vm.Cell{7, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Output != "12 " {
		t.Errorf("second run: output %q, want %q", r2.Output, "12 ")
	}
	if !r2.CacheHit {
		t.Error("second run with different args recompiled the program")
	}
	if r1.Key != r2.Key {
		t.Errorf("keys differ across arg sets: %q vs %q (args leaked into the cache key)", r1.Key, r2.Key)
	}
	if s.Stats().CacheMisses != 1 {
		t.Errorf("cache misses %d, want 1 (one source, compiled once)", s.Stats().CacheMisses)
	}
}

// TestArgsOnEveryEngine runs an argumented program under every
// servable engine.
func TestArgsOnEveryEngine(t *testing.T) {
	s := mustService(t)
	for _, e := range s.Engines() {
		resp, err := s.Run(context.Background(),
			Request{Source: ": main - . ;", Engine: e, Args: []vm.Cell{50, 8}})
		if err != nil {
			t.Errorf("%s: %v", e, err)
			continue
		}
		if resp.Output != "42 " {
			t.Errorf("%s: output %q, want %q", e, resp.Output, "42 ")
		}
	}
}

// TestMemOverlay seeds data memory through the request: the program
// reads a cell the overlay wrote.
func TestMemOverlay(t *testing.T) {
	s := mustService(t)
	// "variable x" allocates cell 0; the overlay then provides its
	// value.
	src := "variable x : main x @ . ;"
	mem := make([]byte, 8)
	mem[0] = 42 // little-endian cell 0 = 42
	resp, err := s.Run(context.Background(), Request{Source: src, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != "42 " {
		t.Errorf("output %q, want %q", resp.Output, "42 ")
	}
	// Oversized overlay: classified, not executed.
	_, err = s.Run(context.Background(),
		Request{Source: src, Mem: make([]byte, 1<<20)})
	if Classify(err) != ClassBadRequest {
		t.Errorf("oversized overlay classified %s, want bad_request", Classify(err))
	}
}

// TestArgsTooLarge: more initial cells than the stack holds is a
// client error, rejected before compilation queueing.
func TestArgsTooLarge(t *testing.T) {
	s := mustService(t)
	_, err := s.Run(context.Background(),
		Request{Source: addSource, Args: make([]vm.Cell, interp.DefaultStackCap+1)})
	if Classify(err) != ClassBadRequest {
		t.Errorf("oversized args classified %s, want bad_request", Classify(err))
	}
}

// TestStackCapLimitsResponses: a program halting deeper than
// MaxStackCells fails with the limit class, ships a truncated stack,
// and reports the true depth.
func TestStackCapLimitsResponses(t *testing.T) {
	const cap = 8
	s := mustService(t, func(c *Config) { c.MaxStackCells = cap })
	deep := ": main " + strings.Repeat("1 ", cap+3) + ";"
	resp, err := s.Run(context.Background(), Request{Source: deep})
	if Classify(err) != ClassLimit {
		t.Fatalf("deep halt classified %s (err %v), want limit", Classify(err), err)
	}
	if resp == nil {
		t.Fatal("stack-cap error lost the partial response")
	}
	if len(resp.Stack) != cap {
		t.Errorf("shipped %d cells, cap is %d", len(resp.Stack), cap)
	}
	if resp.StackDepth != cap+3 {
		t.Errorf("reported depth %d, want %d", resp.StackDepth, cap+3)
	}
	// At the cap is fine.
	ok := ": main " + strings.Repeat("1 ", cap) + ";"
	resp, err = s.Run(context.Background(), Request{Source: ok})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Stack) != cap || resp.StackDepth != cap {
		t.Errorf("at-cap run: %d cells depth %d, want %d/%d", len(resp.Stack), resp.StackDepth, cap, cap)
	}
}

// TestPrometheusExposition drives singleton, batch and failing traffic
// over several engines and checks /metrics' encoder emits Prometheus
// text that keeps the format's rules and carries a sample for every
// counter the JSON snapshot carries.
func TestPrometheusExposition(t *testing.T) {
	s := mustService(t)
	engines := []string{"switch", "static", "compiled"}
	for _, e := range engines {
		if _, err := s.Run(context.Background(), Request{Source: addSource, Engine: e}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(context.Background(), Request{
		Source: ": main + . ;", Inputs: []Input{{Args: []int64{1, 2}}, {Args: []int64{3, 4}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), Request{Source: spinSource, MaxSteps: 1000}); err == nil {
		t.Fatal("spin run unexpectedly succeeded")
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s.Stats()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fams, err := parseExposition(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}

	for _, want := range []string{
		"vmd_requests_total", "vmd_completed_total",
		"vmd_cache_hits_total", "vmd_cache_misses_total",
		"vmd_results_total", "vmd_engine_requests_total",
		"vmd_engine_steps_total", "vmd_exec_latency_seconds",
		"vmd_batch_inputs_total", "vmd_batch_size",
	} {
		if f := fams[want]; f == nil || len(f.samples) == 0 {
			t.Errorf("metric family %s has no sample in exposition:\n%s", want, text)
		}
	}
	for _, v := range conformance(fams) {
		t.Error(v)
	}
	sums := map[string]float64{}
	for _, smp := range fams["vmd_exec_latency_seconds"].samples {
		if smp.name == "vmd_exec_latency_seconds_sum" {
			sums[smp.labels["engine"]] = smp.value
		}
	}
	for _, e := range engines {
		if sums[e] <= 0 {
			t.Errorf("engine %s: latency _sum %g, want > 0", e, sums[e])
		}
	}
	for _, frag := range []string{
		`vmd_results_total{class="ok"} 4`,
		`vmd_results_total{class="limit"} 1`,
		`vmd_engine_requests_total{engine="switch"} 3`,
		`vmd_engine_requests_total{engine="static"} 1`,
		`vmd_engine_requests_total{engine="compiled"} 1`,
		`vmd_batch_inputs_total 2`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("exposition missing %q:\n%s", frag, text)
		}
	}
}
