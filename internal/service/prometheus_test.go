package service

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promFamily is one metric family of a parsed exposition: its HELP and
// TYPE lines and every sample that belongs to it.
type promFamily struct {
	help, typ string
	samples   []promSample
}

// promSample is one sample line. name is the series name as written
// (a histogram's carry _bucket, _sum or _count).
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition parses the Prometheus text format (version 0.0.4)
// as WritePrometheus emits it. A sample must follow its family's TYPE
// line; histogram series resolve to their family by suffix.
func parseExposition(text string) (map[string]*promFamily, error) {
	fams := map[string]*promFamily{}
	family := func(name string) *promFamily {
		if fams[name] == nil {
			fams[name] = &promFamily{}
		}
		return fams[name]
	}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			return nil, fmt.Errorf("line %d: empty line", ln+1)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			family(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			family(name).typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: unknown comment form %q", ln+1, line)
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		f := fams[s.name]
		if f == nil {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(s.name, suffix); ok && fams[base] != nil && fams[base].typ == "histogram" {
					f = fams[base]
				}
			}
		}
		if f == nil || f.typ == "" {
			return nil, fmt.Errorf("line %d: sample %s precedes its TYPE", ln+1, s.name)
		}
		f.samples = append(f.samples, s)
	}
	return fams, nil
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (promSample, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return promSample{}, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return promSample{}, err
	}
	s := promSample{labels: map[string]string{}, value: v}
	series := line[:i]
	name, rest, hasLabels := strings.Cut(series, "{")
	s.name = name
	if !hasLabels {
		return s, nil
	}
	rest, ok := strings.CutSuffix(rest, "}")
	if !ok {
		return promSample{}, fmt.Errorf("unterminated labels in %q", line)
	}
	for rest != "" {
		key, val, ok := strings.Cut(rest, "=")
		if !ok {
			return promSample{}, fmt.Errorf("label without value in %q", line)
		}
		quoted, err := strconv.QuotedPrefix(val)
		if err != nil {
			return promSample{}, fmt.Errorf("label %s in %q: %w", key, line, err)
		}
		s.labels[key], _ = strconv.Unquote(quoted)
		rest = strings.TrimPrefix(val[len(quoted):], ",")
	}
	return s, nil
}

// conformance lists every way the parsed families break the text
// format's rules: each family has HELP and TYPE; each histogram series
// (a label set without le) has monotone cumulative buckets, a +Inf
// bucket equal to its _count, and a _sum.
func conformance(fams map[string]*promFamily) []string {
	var bad []string
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.help == "" {
			bad = append(bad, name+": no HELP")
		}
		switch f.typ {
		case "counter", "gauge":
		case "histogram":
			bad = append(bad, histogramConformance(name, f.samples)...)
		default:
			bad = append(bad, fmt.Sprintf("%s: TYPE %q", name, f.typ))
		}
	}
	return bad
}

func histogramConformance(name string, samples []promSample) []string {
	type series struct {
		prevLe, prevCum float64
		inf, sum, count *float64
	}
	var bad []string
	var order []string
	all := map[string]*series{}
	for _, s := range samples {
		key := seriesKey(s.labels)
		sr := all[key]
		if sr == nil {
			sr = &series{prevLe: math.Inf(-1)}
			all[key] = sr
			order = append(order, key)
		}
		v := s.value
		switch s.name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s{%s}: bad le %q", name, key, s.labels["le"]))
				continue
			}
			if le <= sr.prevLe || v < sr.prevCum {
				bad = append(bad, fmt.Sprintf("%s{%s}: bucket le=%s (%g) not above le=%g (%g)",
					name, key, s.labels["le"], v, sr.prevLe, sr.prevCum))
			}
			sr.prevLe, sr.prevCum = le, v
			if math.IsInf(le, 1) {
				sr.inf = &v
			}
		case name + "_sum":
			sr.sum = &v
		case name + "_count":
			sr.count = &v
		}
	}
	for _, key := range order {
		sr := all[key]
		switch {
		case sr.inf == nil:
			bad = append(bad, fmt.Sprintf("%s{%s}: no +Inf bucket", name, key))
		case sr.count == nil:
			bad = append(bad, fmt.Sprintf("%s{%s}: no _count", name, key))
		case *sr.inf != *sr.count:
			bad = append(bad, fmt.Sprintf("%s{%s}: +Inf bucket %g != _count %g", name, key, *sr.inf, *sr.count))
		}
		if sr.sum == nil {
			bad = append(bad, fmt.Sprintf("%s{%s}: no _sum", name, key))
		}
	}
	return bad
}

// seriesKey identifies a histogram series: its labels other than le.
func seriesKey(labels map[string]string) string {
	var kv []string
	for k, v := range labels {
		if k != "le" {
			kv = append(kv, k+"="+v)
		}
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}

// TestPrometheusConformanceCatchesViolations seeds each rule's
// violation into a conforming exposition and checks it is reported.
func TestPrometheusConformanceCatchesViolations(t *testing.T) {
	const good = `# HELP x_total Things.
# TYPE x_total counter
x_total 3
# HELP lat Latency.
# TYPE lat histogram
lat_bucket{engine="a",le="0.001"} 1
lat_bucket{engine="a",le="0.002"} 2
lat_bucket{engine="a",le="+Inf"} 2
lat_sum{engine="a"} 0.003
lat_count{engine="a"} 2
`
	fams, err := parseExposition(good)
	if err != nil {
		t.Fatal(err)
	}
	if bad := conformance(fams); len(bad) != 0 {
		t.Fatalf("conforming exposition reported: %v", bad)
	}
	for _, tc := range []struct{ name, old, new, want string }{
		{"no HELP", "# HELP x_total Things.\n", "", "no HELP"},
		{"no _sum", "lat_sum{engine=\"a\"} 0.003\n", "", "no _sum"},
		{"non-monotone", `le="0.002"} 2`, `le="0.002"} 0`, "not above"},
		{"+Inf vs _count", `lat_count{engine="a"} 2`, `lat_count{engine="a"} 5`, "!= _count"},
		{"no +Inf", "lat_bucket{engine=\"a\",le=\"+Inf\"} 2\n", "", "no +Inf"},
	} {
		fams, err := parseExposition(strings.Replace(good, tc.old, tc.new, 1))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if bad := conformance(fams); !strings.Contains(strings.Join(bad, "\n"), tc.want) {
			t.Errorf("%s: violations %v, want one containing %q", tc.name, bad, tc.want)
		}
	}
	if _, err := parseExposition("x_total 3\n"); err == nil {
		t.Error("a sample without TYPE parsed")
	}
}
