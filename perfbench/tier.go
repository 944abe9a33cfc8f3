package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// trainArgs is the fixed small corpus the benchmark trains on. The
// representation geometry is cmd/train's default (histogram, 32x16),
// so serving costs match a default deploy.
var trainArgs = []string{"-count", "100", "-maxn", "256", "-epochs", "4", "-seed", "1"}

const replicaCount = 2

// train runs cmd/train into dir/model.gob and returns its path.
func train(r *reaper, dir string) (string, error) {
	model := filepath.Join(dir, "model.gob")
	cmd := exec.Command(filepath.Join(binDir, "train"), append(append([]string(nil), trainArgs...), "-out", model)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := r.run(cmd); err != nil {
		return "", fmt.Errorf("train: %v\n%s", err, out.Bytes())
	}
	return model, nil
}

// node is one running tier process and the base URL it listens on.
type node struct {
	name string
	*child
	url string
}

// tier is two cmd/serve replicas behind one cmd/router, every binary on
// default flags apart from its address, model and replica list.
type tier struct {
	router   *node
	replicas []*node
}

func (t *tier) nodes() []*node { return append([]*node{t.router}, t.replicas...) }

// stop kills every process of the tier and waits for them. A nil tier
// (a boot that failed) has nothing to stop.
func (t *tier) stop() {
	if t == nil {
		return
	}
	for _, n := range t.nodes() {
		if n != nil {
			n.kill()
		}
	}
}

// boot starts the tier and returns once the router's /readyz passes.
func boot(r *reaper, dir, model string) (*tier, error) {
	t := &tier{}
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()
	var urls []string
	for i := range replicaCount {
		n, err := spawn(r, fmt.Sprintf("serve-%d", i), filepath.Join(binDir, "serve"), dir,
			"-addr", "127.0.0.1:0", "-model", model)
		if n != nil {
			t.replicas = append(t.replicas, n)
		}
		if err != nil {
			return nil, err
		}
		urls = append(urls, n.url)
	}
	n, err := spawn(r, "router", filepath.Join(binDir, "router"), dir,
		"-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","))
	t.router = n
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	probe := &http.Client{}
	defer probe.CloseIdleConnections()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, t.router.url+"/readyz", nil)
		if res, err := probe.Do(req); err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				ok = true
				return t, nil
			}
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("router never became ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// spawn starts one tier binary and waits for the "listening on" line it
// prints to stdout. Its stderr goes to dir/<name>.log. The returned
// node is non-nil whenever the process started, so the caller can stop
// it even on error.
func spawn(r *reaper, name, bin, dir string, args ...string) (*node, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	w := &addrWatch{found: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = w, logf
	c, err := r.start(cmd)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	n := &node{name: name, child: c}
	select {
	case n.url = <-w.found:
		return n, nil
	case <-c.done:
		return n, fmt.Errorf("%s exited before listening: %v\n%s", name, c.err, logTail(logf.Name()))
	case <-time.After(20 * time.Second):
		return n, fmt.Errorf("%s never printed its address", name)
	}
}

// logTail returns the last few KiB of a child's log, for error
// messages: the run directory holding it is removed on exit.
func logTail(path string) []byte {
	b, _ := os.ReadFile(path) // best effort: the error already says what failed
	return b[max(len(b)-4096, 0):]
}

// addrWatch is a child's stdout: it reports the URL from the first
// "listening on <url>" line and discards everything else.
type addrWatch struct {
	mu    sync.Mutex
	buf   []byte
	sent  bool
	found chan string
}

func (w *addrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const marker = "listening on "
	if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
		rest := w.buf[i+len(marker):]
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			w.found <- strings.TrimSpace(string(rest[:j]))
			w.sent, w.buf = true, nil
		}
	}
	return len(p), nil
}

// usage is one snapshot of every tier process: CPU time from /proc and
// the /metrics exposition.
type usage struct {
	cpu     map[string]time.Duration
	metrics map[string]map[string]float64
}

func (t *tier) snapshot() (usage, error) {
	u := usage{cpu: map[string]time.Duration{}, metrics: map[string]map[string]float64{}}
	for _, n := range t.nodes() {
		cpu, err := procCPU(n.pid())
		if err != nil {
			return u, fmt.Errorf("%s: %w", n.name, err)
		}
		m, err := scrape(n.url + "/metrics")
		if err != nil {
			return u, fmt.Errorf("%s: %w", n.name, err)
		}
		u.cpu[n.name], u.metrics[n.name] = cpu, m
	}
	return u, nil
}

// peakRSS is the summed VmHWM of every tier process, in bytes.
func (t *tier) peakRSS() (int64, error) {
	var sum int64
	for _, n := range t.nodes() {
		b, err := procHWM(n.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", n.name, err)
		}
		sum += b
	}
	return sum, nil
}

func scrape(url string) (map[string]float64, error) {
	res, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, res.Status)
	}
	return obs.ParseMetrics(res.Body)
}

// delta is the change of one series between two snapshots, summed over
// the named processes (every process when none are named).
func delta(before, after usage, series string, names ...string) float64 {
	var d float64
	for name, m := range after.metrics {
		if len(names) > 0 && !slices.Contains(names, name) {
			continue
		}
		d += m[series] - before.metrics[name][series]
	}
	return d
}

func cpuDelta(before, after usage, names ...string) time.Duration {
	var d time.Duration
	for name, c := range after.cpu {
		if len(names) > 0 && !slices.Contains(names, name) {
			continue
		}
		d += c - before.cpu[name]
	}
	return d
}

func (t *tier) replicaNames() []string {
	var out []string
	for _, n := range t.replicas {
		out = append(out, n.name)
	}
	return out
}
