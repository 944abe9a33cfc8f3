package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/dtree"
	"repro/internal/obs"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

func TestPercentileAndSampleCount(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{1000, 0.99, 990, 10}, // the smallest sample that supports a p99
		{999, 0.99, 990, 9},
		{100, 0.99, 99, 1},
		{10, 0.5, 5, 5},
		{11, 0.5, 6, 5},
		{1, 0.99, 1, 0},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
		if got := beyond(c.n, c.q); got != c.wantBeyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.wantBeyond)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 || xs[0] != 3 {
		t.Errorf("median(3,1,2) = %v and reordered its input to %v", got, xs)
	}
}

func tinySource(t *testing.T, n int) *bodySource {
	t.Helper()
	b, err := newBase(synthgen.Banded(8, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return &bodySource{bases: []base{b}, reqs: make([]request, n)}
}

// A server that stalls on the first request must be charged for every
// arrival queued behind the stall: with one connection, arrivals due
// every 10 ms wait for the 200 ms stall, and their latency counts from
// when they were due, not from when they were sent.
func TestDueTimeChargesArrivalsQueuedBehindAStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		io.WriteString(w, `{"format":"csr","rung":"csr"}`)
	}))
	defer srv.Close()

	const n = 10
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * 10 * time.Millisecond
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	out, _ := drive(context.Background(), c, plan{url: srv.URL, src: tinySource(t, n), conns: 1, dues: dues})
	if len(out) != n {
		t.Fatalf("%d samples, want %d", len(out), n)
	}
	for i, s := range out {
		if s.status != 200 || s.format != "csr" {
			t.Fatalf("sample %d: status %d format %q", i, s.status, s.format)
		}
		if s.due != dues[i] {
			t.Errorf("sample %d due at %v, want %v", i, s.due, dues[i])
		}
		// Everything finishes after the stall, so the charged latency
		// is at least the stall's remainder at the arrival's due time.
		if want := stall - s.due; s.latency() < want {
			t.Errorf("sample %d: latency %v, want >= %v", i, s.latency(), want)
		}
		if i == 0 {
			continue
		}
		if s.slept {
			t.Errorf("sample %d found its connection idle, but it was queued behind the stall", i)
		}
		if fromSend := s.done - s.sent; fromSend > s.latency()/2 {
			t.Errorf("sample %d: timed from send it would read %v of its %v", i, fromSend, s.latency())
		}
	}
}

func TestParseProcFiles(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0 123 456 789\n"
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; cpu != want {
		t.Errorf("cpu = %v, want %v (300 ticks)", cpu, want)
	}
	if _, err := parseStatCPU("4242 (serve) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}

	status := "Name:\tserve\nVmPeak:\t  800000 kB\nVmHWM:\t   48128 kB\nVmRSS:\t   40000 kB\n"
	hwm, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(48128) << 10; hwm != want {
		t.Errorf("VmHWM = %d, want %d", hwm, want)
	}
	if _, err := parseVmHWM("Name:\tserve\n"); err == nil {
		t.Error("a status without VmHWM parsed")
	}

	// The live files of this process parse too.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if b, err := procHWM(os.Getpid()); err != nil || b <= 0 {
		t.Errorf("procHWM(self) = %d, %v", b, err)
	}
}

func decode(t *testing.T, body []byte) *sparse.COO {
	t.Helper()
	m, err := serve.DecodeMatrix(context.Background(), body, "application/json", sparse.DefaultLimits())
	if err != nil {
		t.Fatalf("decoder rejected %q...: %v", body[:min(len(body), 80)], err)
	}
	return m
}

func TestSpliceGivesANewPatternTheDecoderAccepts(t *testing.T) {
	m := synthgen.Banded(16, 1, 1, 3)
	b, err := newBase(m)
	if err != nil {
		t.Fatal(err)
	}
	plain := decode(t, append(append([]byte(nil), b.head...), b.tail...))
	if plain.NNZ() != m.NNZ() || sparse.Fingerprint(plain) != sparse.Fingerprint(m) {
		t.Fatal("the unspliced base body does not decode to its matrix")
	}
	// (0,15) lies outside the band.
	got := decode(t, []byte(strings.Join([]string{string(b.head), string(splice(b, 0, 15)[1]), string(b.tail)}, "")))
	if got.NNZ() != m.NNZ()+1 {
		t.Errorf("spliced body decodes with %d nonzeros, want %d", got.NNZ(), m.NNZ()+1)
	}
	if sparse.Fingerprint(got) == sparse.Fingerprint(m) {
		t.Error("splicing kept the base's fingerprint")
	}

	src, err := splicedSource([]*sparse.COO{m, synthgen.Random(24, 24, 60, 3)}, 9, 200)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for id := range src.reqs {
		got := decode(t, src.body(id))
		if want := src.bases[src.reqs[id].base].nnz + 1; got.NNZ() != want {
			t.Fatalf("request %d decodes with %d nonzeros, want %d", id, got.NNZ(), want)
		}
		fp := sparse.Fingerprint(got)
		if other, dup := seen[fp]; dup {
			t.Fatalf("requests %d and %d share a fingerprint", other, id)
		}
		seen[fp] = id
		if n, _ := io.Copy(io.Discard, src.reader(id)); int(n) != src.size(id) {
			t.Fatalf("request %d: reader gives %d bytes, size says %d", id, n, src.size(id))
		}
	}
	again, _ := splicedSource([]*sparse.COO{m, synthgen.Random(24, 24, 60, 3)}, 9, 200)
	for id := range src.reqs {
		if string(again.body(id)) != string(src.body(id)) {
			t.Fatalf("the same seed gave a different request %d", id)
		}
	}
}

func TestSplitSpansSelfTimes(t *testing.T) {
	spans := []obs.Span{
		{Name: "parse", StartMicros: 0, DurationMicros: 100},
		{Name: "cache", StartMicros: 100, DurationMicros: 10},
		{Name: "queue", StartMicros: 115, DurationMicros: 500},
		{Name: "rung:cnn", StartMicros: 650, DurationMicros: 300},
		{Name: "forward", StartMicros: 660, DurationMicros: 250},
		{Name: "batch", StartMicros: 615, DurationMicros: 400},
	}
	got := splitSpans(spans)
	want := stages{parse: 100, cache: 10, queue: 500, batchSelf: 100, rungSelf: 50, forward: 250, envelope: 1015}
	if got != want {
		t.Errorf("splitSpans = %+v, want %+v", got, want)
	}
	hit := splitSpans(spans[:2])
	if hit.queue != 0 || hit.batchSelf != 0 || hit.forward != 0 || hit.envelope != 110 {
		t.Errorf("cache hit split = %+v", hit)
	}
}

// The oracle counts every outcome class and flags a 200 whose format
// is not the reference's; a phase without one correct answer is invalid.
func TestOracleJudgesEveryAnswer(t *testing.T) {
	formats := sparse.CPUFormats()
	sel, err := selector.New(selector.DefaultConfig(represent.KindHistogram, formats))
	if err != nil {
		t.Fatal(err)
	}
	src, err := splicedSource([]*sparse.COO{synthgen.Banded(32, 2, 1, 5), synthgen.Random(40, 40, 90, 5)}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{sel: sel, dt: dtree.Heuristic(formats), refs: map[int]reference{}}
	right := o.compute(src.body(0))
	other := "csr"
	if right.cnn == other {
		other = "coo"
	}
	p := &phase{samples: []sample{
		{id: 0, status: 200, rung: "cnn", format: right.cnn},
		{id: 1, status: 200, rung: "csr", format: "csr"},
		{id: 2, status: 200, rung: "cnn", format: other},
		{id: 3, status: 429},
		{id: 4, status: 0},
	}}
	if p.samples[2].format == o.compute(src.body(2)).cnn {
		t.Skip("the untrained model happens to answer the wrong-answer probe correctly")
	}
	o.judge(src, p)
	if p.attempted != 5 || p.correct != 2 || p.wrong != 1 || p.non200 != 1 || p.transport != 1 {
		t.Fatalf("judge counted attempted=%d correct=%d wrong=%d non200=%d transport=%d",
			p.attempted, p.correct, p.wrong, p.non200, p.transport)
	}
	if !p.samples[2].wrong || len(p.problems) != 1 {
		t.Errorf("the wrong answer was not flagged: %+v, problems %q", p.samples[2], p.problems)
	}
	if bad := checkWorkload(src, []*phase{p}, o); len(bad) != 0 {
		t.Errorf("distinct spliced bodies failed the self-checks: %q", bad)
	}
	none := &phase{samples: []sample{{id: 3, status: 503}}}
	o.judge(src, none)
	if bad := checkWorkload(src, []*phase{none}, o); len(bad) == 0 {
		t.Error("a phase without correct answers passed the self-checks")
	}
}

// A failed boot leaves no tier; stopping it must not panic.
func TestStopNilTier(t *testing.T) {
	var none *tier
	none.stop()
}

// Killing a child kills its whole process group, so a grandchild cannot
// outlive the run.
func TestReaperKillsTheProcessGroup(t *testing.T) {
	r := &reaper{live: map[*child]struct{}{}}
	pidFile := t.TempDir() + "/grandchild"
	c, err := r.start(exec.Command("bash", "-c", "sleep 60 & echo $! > "+pidFile+"; wait"))
	if err != nil {
		t.Skip("bash unavailable:", err)
	}
	var grandchild int
	for deadline := time.Now().Add(5 * time.Second); grandchild == 0 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if b, err := os.ReadFile(pidFile); err == nil && strings.HasSuffix(string(b), "\n") {
			grandchild, _ = strconv.Atoi(strings.TrimSpace(string(b)))
		}
	}
	if grandchild == 0 {
		r.killAll()
		t.Fatal("grandchild never started")
	}
	r.killAll()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("child still running after killAll")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		// A killed grandchild is reparented and reaped; until then it is
		// a zombie, which no longer runs.
		b, err := os.ReadFile("/proc/" + strconv.Itoa(grandchild) + "/stat")
		if err != nil || strings.Contains(string(b), ") Z ") {
			break
		}
		if time.Now().After(deadline) {
			syscall.Kill(grandchild, syscall.SIGKILL)
			t.Fatal("grandchild survived its group being killed")
		}
	}
	if _, err := r.start(exec.Command("true")); err == nil {
		t.Error("the reaper started a child after killAll")
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q %q, here %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, here %+v", i, m, want)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, here %+v", i, m, want)
		}
	}
}
