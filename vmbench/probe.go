package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// probeEvery is how often a window probes the host's speed, between
// two requests. A probe takes about a millisecond and allocates; at
// four times this rate the client's own collections cost tiny-rpc a
// sixth of its throughput.
const probeEvery = 100 * time.Millisecond

// probeRef is the time one probe takes at the reference speed: its
// median on a quiet 2-vCPU Intel Xeon host. Figures scaled to the
// reference speed read as they would have there.
const probeRef = time.Millisecond

// probeDoc is the probe's input: a record of ordinary shapes.
type probeDoc struct {
	IDs   []int
	Names map[string]float64
	Text  string
}

// probeSink keeps the probe's result live.
var probeSink int

// probe does a fixed piece of ordinary Go work, a JSON round trip,
// map building, formatting and a sort, and returns how long it took.
// It uses none of the repository's code, so no change to the program
// under test moves it, and on a shared host it slows with the
// interpreter, the compile pipeline and the HTTP path alike, which a
// tight arithmetic loop does not.
func probe() time.Duration {
	start := time.Now()
	for k := 0; k < 3; k++ {
		doc := probeDoc{Names: make(map[string]float64, 200)}
		for i := 0; i < 200; i++ {
			doc.IDs = append(doc.IDs, (i*7919+k)%1000)
			doc.Names["k"+strconv.Itoa(i)] = float64(i)
		}
		doc.Text = strings.Repeat("abc ", 200)
		b, err := json.Marshal(doc)
		if err != nil {
			panic(err) // ints, floats and strings always marshal
		}
		var back probeDoc
		if err := json.Unmarshal(b, &back); err != nil {
			panic(err)
		}
		sort.Ints(back.IDs)
		probeSink += back.IDs[k] + len(back.Names)
	}
	return time.Since(start)
}

// stolen returns the time the hypervisor has kept the host's vCPUs
// from running, per vCPU, from the steal column of /proc/stat's cpu
// lines; 0 where the kernel does not account it.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total time.Duration
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		ticks, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return 0
		}
		total += time.Duration(ticks) * time.Second / userHZ
		cpus++
	}
	if cpus == 0 {
		return 0
	}
	return total / time.Duration(cpus)
}

// userHZ is the unit of /proc/stat's counters: Linux reports them in
// hundredths of a second on every architecture.
const userHZ = 100
