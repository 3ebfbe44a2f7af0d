// Command vmbench is the repository's end-to-end benchmark. It starts
// the unmodified cmd/vmd binary on loopback, drives one seeded
// closed-loop workload over HTTP/JSON, checks every reply against a
// reference computed in-process, and prints the metrics BENCHMARK.json
// names.
//
// Run it from the repository root through its wrapper, which builds
// vmd and this command from source into .bench_build:
//
//	bash vmbench/run.sh --workload tiny-rpc --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists), each one closed
// loop over one connection:
//
//	paper-exec     warm cache: the four paper programs × {switch,
//	               compiled}; engine-bound.
//	tiny-rpc       warm cache: tiny /run calls with seeded args; HTTP,
//	               JSON and service-bound.
//	program-churn  -cache 16 over an empty -cachedir: distinct one-pass
//	               variants, first sightings and re-uses; artifact-bound.
//
// With --trace 0 the run reports the end-to-end metrics. Request rate
// and round trips are scaled to a reference host speed that probes
// between requests measure (see stats in load.go), and the report
// prints them as measured too. With --trace 1
// it replays a fixed-length prefix of the workload's stream with spans
// kept in memory, times calls into each layer's public functions from
// outside vmd, and reports the per-layer metrics, span self times and
// the tracing overhead. The last line of standard output is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A reply
// that differs from its reference, a metrics cross-check that does not
// add up, or a deterministic count that differs between two
// computations makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workers is vmd's worker count: never more than the machine has CPUs.
func workers() int { return min(runtime.NumCPU(), 2) }

// spec is the part of BENCHMARK.json the command checks its output
// against: it must report exactly the metrics listed, in their units.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// pick returns the listed metrics from all, in the listed units, or an
// error naming what is missing or mismatched.
func pick(all map[string]metric, listed []struct{ Name, Unit string }) (map[string]metric, error) {
	out := make(map[string]metric, len(listed))
	var bad []string
	for _, l := range listed {
		m, ok := all[l.Name]
		switch {
		case !ok:
			bad = append(bad, l.Name+" (not measured)")
		case m.Unit != l.Unit:
			bad = append(bad, fmt.Sprintf("%s (measured in %s, listed in %s)", l.Name, m.Unit, l.Unit))
		default:
			out[l.Name] = m
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists metrics this command does not report: %s", strings.Join(bad, ", "))
	}
	return out, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-exec, tiny-rpc, program-churn or all")
		seed    = flag.Int64("seed", 1, "seed of the request stream")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
		vmdBin  = flag.String("vmd", ".bench_build/vmd", "vmd binary")
		work    = flag.String("work", ".bench_build/work", "scratch directory")
		specF   = flag.String("spec", "BENCHMARK.json", "benchmark definition the output must match")
	)
	flag.Parse()
	if err := run(*name, options{vmd: *vmdBin, work: *work, seed: *seed, seconds: *seconds}, *trace == 1, *specF); err != nil {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run runs the named workload, or every workload for "all", in which
// case the result's metric names carry the workload as a prefix.
func run(name string, opt options, traced bool, specFile string) error {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return err
	}
	list := []string{name}
	if name == "all" {
		list = nil
		for _, w := range workloadList {
			list = append(list, w.name)
		}
	}
	res := result{Metrics: make(map[string]metric)}
	for _, n := range list {
		w, err := workloadByName(n)
		if err != nil {
			return err
		}
		m, attempted, failed, err := runOne(opt, w, traced, sp)
		if err != nil {
			return err
		}
		res.Attempted += attempted
		res.Failed += failed
		for k, v := range m {
			if len(list) > 1 {
				k = n + "." + k
			}
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d of %d requests failed the reference check", res.Failed, res.Attempted)
	}
	return nil
}

// runOne runs one workload, prints its report and returns the metrics
// the spec lists for the run's kind.
func runOne(opt options, w workload, traced bool, sp spec) (map[string]metric, int, int, error) {
	if traced {
		t, err := runTraced(opt, w)
		if err != nil {
			return nil, 0, 0, err
		}
		t.print(os.Stdout, w)
		m, err := pick(t.metrics, sp.PerLayer)
		return m, t.attempted, t.failed, err
	}
	m, lr, err := runEndToEnd(opt, w)
	if lr.failed > 0 {
		fmt.Fprintf(os.Stderr, "vmbench: %d of %d requests failed; first: %s\n", lr.failed, lr.attempted, lr.firstErr)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	printEndToEnd(w, m, lr)
	m, err = pick(m, sp.EndToEnd)
	return m, lr.attempted, lr.failed, err
}

func printEndToEnd(w workload, m map[string]metric, lr loadResult) {
	st := lr.stats()
	fmt.Printf("workload %s: closed loop, 1 connection, %d requests in %.2fs; %d host-speed probes, host at %.3fx the reference time, %.1f%% of vCPU time stolen\n",
		w.name, lr.attempted, lr.window.Seconds(), len(lr.probes), st.speed, 100*st.steal)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		note := ""
		switch k {
		case "req_per_s":
			note = fmt.Sprintf("  (at reference speed, median over the faster %d of %d slices of %v; %.2f as measured over all)", st.kept, st.slices, sliceDur, st.rawRate)
		case "latency_p50_ms":
			note = fmt.Sprintf("  (at reference speed, n=%d in the faster %d slices; %.4f as measured over all %d)", st.samples, st.kept, st.rawP50, lr.attempted)
		case "latency_p95_ms":
			note = fmt.Sprintf("  (at reference speed, n=%d in the faster %d slices)", st.samples, st.kept)
		case "latency_p99_ms":
			note = fmt.Sprintf("  (at reference speed, n=%d in the faster %d slices; %.4f as measured over all %d; printed only, the gated tail is p95)", st.samples, st.kept, st.rawP99, lr.attempted)
		case "error_rate":
			note = fmt.Sprintf("  (%d/%d)", lr.failed, lr.attempted)
		case "setup_s":
			note = fmt.Sprintf("  (median of %d starts, at reference speed)", setups)
		}
		fmt.Printf("  %-16s %14.6f %-6s%s\n", k, m[k].Value, m[k].Unit, note)
	}
}
