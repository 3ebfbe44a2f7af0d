package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running vmd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    bytes.Buffer // vmd's stderr, shown when something fails
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port. vmd logs its
// -addr flag, not the bound port, so the port is chosen here.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startVMD execs bin with args plus a loopback -addr and returns once
// GET /healthz answers. The client holds one connection: the load is
// one closed loop.
func startVMD(bin string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		},
	}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = &d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vmd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState in stop
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("vmd exited before /healthz answered: %s", d.log.String())
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("vmd /healthz not OK after 30s")
		}
	}
}

// stop sends SIGTERM and waits for exit, killing after 15s.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSS returns the running vmd's peak resident set in MiB, VmHWM
// from /proc/<pid>/status. wait4's Maxrss would not do: when a process
// execs, Linux folds the resident set of the memory it leaves, here
// the benchmark's own, into the new image's Maxrss, so the figure
// would read the benchmark's footprint whenever that is the larger.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, fmt.Errorf("vmd peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("vmd peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("vmd peak RSS: no VmHWM line in /proc/<pid>/status")
}

// post sends body to path and returns the status and reply body.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

// compile sends src through /compile, the warm-up path.
func (d *daemon) compile(src string) error {
	body, _ := json.Marshal(map[string]string{"source": src}) // a string map always marshals
	status, reply, err := d.post("/compile", body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, reply)
	}
	return err
}

// checkEngines refuses to go on when vmd does not serve an engine the
// workload names, so a registry change fails here and not as a stream
// of request errors.
func (d *daemon) checkEngines(want []string) error {
	b, err := d.get("/engines")
	if err != nil {
		return err
	}
	var list []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return fmt.Errorf("decode /engines: %w", err)
	}
	return missingEngines(want, list)
}

func missingEngines(want []string, list []struct {
	Name string `json:"name"`
}) error {
	have := make(map[string]bool, len(list))
	var names []string
	for _, e := range list {
		have[e.Name] = true
		names = append(names, e.Name)
	}
	for _, w := range want {
		if !have[w] {
			return fmt.Errorf("vmd does not serve engine %q (GET /engines lists %s); refusing to run", w, strings.Join(names, ", "))
		}
	}
	return nil
}

// metrics scrapes /metrics.
func (d *daemon) metrics() (promSamples, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(b))
}

// promSamples maps a series, written as in the exposition
// (`name{label="v",...}`), to its value.
type promSamples map[string]float64

// parseProm reads the Prometheus text format sample by sample. It
// needs no family to be complete: vmd's vmd_exec_latency_seconds
// histogram has _bucket and _count series but no _sum, and parses like
// any other.
func parseProm(r io.Reader) (promSamples, error) {
	out := make(promSamples)
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after[k] - before[k] for every series in after.
func (after promSamples) delta(before promSamples) promSamples {
	out := make(promSamples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// crossCheck compares what vmd counted between two scrapes with what
// the client saw: the request count and the outcome count per error
// class must agree exactly.
func crossCheck(d promSamples, attempted int, classes map[string]int) error {
	var errs []string
	if got := int(d["vmd_requests_total"]); got != attempted {
		errs = append(errs, fmt.Sprintf("vmd_requests_total grew by %d, client attempted %d", got, attempted))
	}
	seen := make(map[string]bool)
	for k, v := range d {
		class, ok := strings.CutPrefix(k, `vmd_results_total{class="`)
		if !ok {
			continue
		}
		class = strings.TrimSuffix(class, `"}`)
		seen[class] = true
		if int(v) != classes[class] {
			errs = append(errs, fmt.Sprintf("vmd_results_total{class=%q} grew by %d, client saw %d", class, int(v), classes[class]))
		}
	}
	for class, n := range classes {
		if !seen[class] && n != 0 {
			errs = append(errs, fmt.Sprintf("client saw %d replies of class %q, vmd_results_total has no such series", n, class))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("metrics cross-check: %s", strings.Join(errs, "; "))
	}
	return nil
}

// workDir empties and returns dir, creating it if needed.
func workDir(dir string) (string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
