package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4) — the plain-text counters-and-
// histograms dialect every Prometheus-compatible scraper speaks. It is
// a hand-rolled encoder over the same Snapshot /stats serves as JSON,
// so the service stays dependency-free.
//
// Conventions: every metric is prefixed vmd_; counters end in _total;
// histograms follow the cumulative-buckets encoding (name_bucket with
// an le label, plus name_sum and name_count).
func WritePrometheus(w io.Writer, s Snapshot) error {
	// Map iteration order is random; sort labels so scrapes are
	// stable and diffs between scrapes are meaningful.
	classes := make([]string, 0, len(s.Errors))
	for c := range s.Errors {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	engines := make([]string, 0, len(s.Engines))
	for e := range s.Engines {
		engines = append(engines, e)
	}
	sort.Strings(engines)

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counter := func(name, help string, v int64) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	counter("vmd_requests_total", "Requests received, including rejects.", s.Requests)
	counter("vmd_completed_total", "Requests finished, any class.", s.Completed)
	counter("vmd_cache_hits_total", "Program cache hits.", s.CacheHits)
	counter("vmd_cache_misses_total", "Program cache misses (compiles).", s.CacheMisses)
	counter("vmd_cache_coalesced_total", "Lookups that joined an in-flight compile.", s.CacheCoalesced)
	counter("vmd_cache_evictions_total", "Programs evicted from the cache.", s.CacheEvictions)
	p("# HELP vmd_cache_size Programs currently cached.\n# TYPE vmd_cache_size gauge\nvmd_cache_size %d\n", s.CacheSize)

	p("# HELP vmd_analysis_total Executions by the abstract interpreter's verdict for their program.\n# TYPE vmd_analysis_total counter\n")
	p("vmd_analysis_total{outcome=\"proved\"} %d\n", s.AnalysisProved)
	p("vmd_analysis_total{outcome=\"unproven\"} %d\n", s.AnalysisUnproven)

	counter("vmd_quickened_programs_total", "Cached programs rewritten to superinstruction form at insert time.", s.QuickenedPrograms)
	counter("vmd_quickened_ops_total", "Superinstruction sites planted across quickened programs.", s.QuickenedOps)

	counter("vmd_optimized_programs_total", "Cached programs serving a validator-certified optimizer rewrite.", s.OptimizedPrograms)
	p("# HELP vmd_optimized_ops_total Instruction slots rewritten or deleted per optimizer pass across optimized programs.\n# TYPE vmd_optimized_ops_total counter\n")
	// Declaration order, every pass label always present: the label set
	// IS the optimizer's pass set, which the lint suite pins.
	for _, pass := range optPassLabels {
		p("vmd_optimized_ops_total{pass=%q} %d\n", pass, s.OptimizedOps[pass])
	}

	counter("vmd_compiled_programs_total", "Programs lowered to AOT closure artifacts by the compiled engine.", s.CompiledPrograms)
	counter("vmd_compiled_proved_total", "AOT artifacts carrying a proof-elided code variant.", s.CompiledProved)

	p("# HELP vmd_artifact_total Artifact-store events by pipeline stage and outcome.\n# TYPE vmd_artifact_total counter\n")
	p("vmd_artifact_total{stage=\"unit\",outcome=\"memory_hit\"} %d\n", s.Artifact.MemoryHits)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"disk_hit\"} %d\n", s.Artifact.DiskHits)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"miss\"} %d\n", s.Artifact.Misses)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"coalesced\"} %d\n", s.Artifact.Coalesced)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"corrupt_recomputed\"} %d\n", s.Artifact.CorruptRecomputed)
	p("vmd_artifact_total{stage=\"unit\",outcome=\"evicted\"} %d\n", s.Artifact.Evictions)
	p("vmd_artifact_total{stage=\"persist\",outcome=\"ok\"} %d\n", s.Artifact.Persisted)
	p("vmd_artifact_total{stage=\"persist\",outcome=\"error\"} %d\n", s.Artifact.PersistErrors)
	p("vmd_artifact_total{stage=\"optimize\",outcome=\"refused\"} %d\n", s.Artifact.OptimizeRefused)

	p("# HELP vmd_results_total Finished requests by error class.\n# TYPE vmd_results_total counter\n")
	for _, c := range classes {
		p("vmd_results_total{class=%q} %d\n", c, s.Errors[c])
	}

	counter("vmd_batch_inputs_total", "Inputs executed via batch requests.", s.BatchInputs)
	inputClasses := make([]string, 0, len(s.BatchInputResults))
	for c := range s.BatchInputResults {
		inputClasses = append(inputClasses, c)
	}
	sort.Strings(inputClasses)
	p("# HELP vmd_batch_input_results_total Per-input outcomes within batch requests, by error class.\n# TYPE vmd_batch_input_results_total counter\n")
	for _, c := range inputClasses {
		p("vmd_batch_input_results_total{class=%q} %d\n", c, s.BatchInputResults[c])
	}
	p("# HELP vmd_batch_size Inputs per executed batch request.\n# TYPE vmd_batch_size histogram\n")
	// Bucket i counts batches of at most 2^i inputs; the Prometheus
	// encoding wants cumulative counts. The sum of sizes is exactly
	// the total input count the registry already tracks.
	cumBatches := int64(0)
	for i := 0; i < NumBatchBuckets-1; i++ {
		cumBatches += s.BatchSizes[i]
		p("vmd_batch_size_bucket{le=%q} %d\n", strconv.Itoa(1<<i), cumBatches)
	}
	cumBatches += s.BatchSizes[NumBatchBuckets-1]
	p("vmd_batch_size_bucket{le=\"+Inf\"} %d\n", cumBatches)
	p("vmd_batch_size_sum %d\n", s.BatchInputs)
	p("vmd_batch_size_count %d\n", cumBatches)

	p("# HELP vmd_engine_requests_total Executions per engine.\n# TYPE vmd_engine_requests_total counter\n")
	for _, e := range engines {
		p("vmd_engine_requests_total{engine=%q} %d\n", e, s.Engines[e].Requests)
	}
	p("# HELP vmd_engine_steps_total VM instructions executed per engine.\n# TYPE vmd_engine_steps_total counter\n")
	for _, e := range engines {
		p("vmd_engine_steps_total{engine=%q} %d\n", e, s.Engines[e].Steps)
	}

	p("# HELP vmd_exec_latency_seconds Execution wall-clock latency per engine.\n# TYPE vmd_exec_latency_seconds histogram\n")
	for _, e := range engines {
		es := s.Engines[e]
		// The registry's bucket i counts latencies in [2^(i-1), 2^i)
		// microseconds (bucket 0: <1us); the Prometheus encoding wants
		// cumulative counts with upper bounds in seconds.
		cum := int64(0)
		for i := 0; i < NumLatencyBuckets-1; i++ {
			cum += es.Latency[i]
			le := strconv.FormatFloat(float64(int64(1)<<i)/1e6, 'g', -1, 64)
			p("vmd_exec_latency_seconds_bucket{engine=%q,le=%q} %d\n", e, le, cum)
		}
		cum += es.Latency[NumLatencyBuckets-1]
		p("vmd_exec_latency_seconds_bucket{engine=%q,le=\"+Inf\"} %d\n", e, cum)
		p("vmd_exec_latency_seconds_sum{engine=%q} %s\n", e, strconv.FormatFloat(float64(es.LatencySumNs)/1e9, 'g', -1, 64))
		p("vmd_exec_latency_seconds_count{engine=%q} %d\n", e, cum)
	}
	return err
}
