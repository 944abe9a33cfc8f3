// Command perfbench is the repository's end-to-end serving benchmark.
// It trains a small model with cmd/train, boots two cmd/serve replicas
// behind one cmd/router, drives one named workload against the router
// from this single process, checks every answer against a reference
// computed here from the same model file, and prints every metric by
// name and unit, ending with one JSON line. perfbench/run.sh builds the
// binaries and runs it from the repository root:
//
//	bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload and seed twice, untraced and then on a fresh tier with
// ?trace=1, and reports the per-layer breakdown: replica span self
// times, /metrics deltas, per-process CPU, and in-process timings of
// the layers' public functions on the workload's own bodies.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/dtree"
	"repro/internal/selector"
)

const (
	// perfbench/run.sh builds the tier binaries into binDir and runs
	// this program from the checkout root; each run works in a fresh
	// directory under workDir.
	workDir = ".bench_build"
	binDir  = ".bench_build/bin"
	// setups is how many times a run trains and boots; setup_s is the
	// median.
	setups = 3
	// maxLateP99 bounds the generator's own lateness (sent minus due,
	// for arrivals whose connection was idle), typically 1-5 ms. Beyond
	// it the load was not offered as scheduled and the run is invalid.
	maxLateP99 = 25 * time.Millisecond
	// phaseSlack bounds how long a phase may run past its measured
	// duration before its requests are abandoned, so a wedged tier
	// cannot hold the run past its time limit.
	phaseSlack = 30 * time.Second
	// minHitRatio is hot-zipf's floor on cache hits after warm-up.
	minHitRatio = 0.99
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type config struct {
	wl      workload
	seed    int64
	measure time.Duration
	trace   bool
	dir     string
	conns   int
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hot-zipf, cold-small or cold-saturate")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Int("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (hot-zipf, cold-small, cold-saturate), --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := newReaper(func() { os.RemoveAll(dir) })
	defer r.killAll()
	cfg := config{
		wl: wl, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: dir, conns: runtime.NumCPU(),
	}
	res, err := bench(r, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout, cfg)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line; the other fields feed the report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`

	notes    []string // per-phase accounting lines
	problems []string // failed self-checks and oracle mismatches
	table    []metric
}

type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func bench(r *reaper, cfg config) (*result, error) {
	ctx := context.Background()
	model, t, st, err := setup(r, cfg)
	if err != nil {
		return nil, err
	}
	defer func() { t.stop() }()
	sel, err := selector.LoadFile(model)
	if err != nil {
		return nil, fmt.Errorf("loading the reference model: %w", err)
	}
	ref := &oracle{sel: sel, dt: dtree.Heuristic(sel.Cfg.Formats), refs: map[int]reference{}}

	src, err := cfg.wl.newSource(cfg.seed, cfg.wl.warm+cfg.wl.measured(cfg.measure))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.wl.name, err)
	}
	plain, err := runPhase(ctx, t, cfg, src, false)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]valued{}}
	phases := []*phase{plain}
	var traced *phase
	if cfg.trace {
		// The traced run repeats the same requests, so it needs a tier
		// whose caches have never seen them.
		t.stop()
		if t, err = boot(r, cfg.dir, model); err != nil {
			return nil, err
		}
		if traced, err = runPhase(ctx, t, cfg, src, true); err != nil {
			return nil, err
		}
		phases = append(phases, traced)
	}
	t.stop()

	for _, p := range phases {
		ref.judge(src, p)
		res.Attempted += p.attempted
		res.Failed += p.attempted - p.correct
		res.notes = append(res.notes, p.summary())
		res.problems = append(res.problems, p.problems...)
	}
	res.problems = append(res.problems, checkWorkload(src, phases, ref)...)

	if cfg.trace {
		res.table = perLayer
		vals := traced.layerValues(plain, src, st)
		for k, v := range layerTimes(src, traced.measuredIDs(), sel, 150, 2*time.Second) {
			vals[k] = v
		}
		res.notes = append(res.notes, fmt.Sprintf(
			"breakdown: traced p50 %.4f ms = span self times %.4f ms (%s) + cluster.hop_ms %.4f ms",
			vals["trace.p50_ms"], selfTimeSum(vals)/1e3, strings.Join(selfTimes, " + "), vals["cluster.hop_ms"]))
		res.fill(vals)
	} else {
		res.table = endToEnd
		res.fill(plain.endToEndValues(st))
	}
	res.Correct = len(res.problems) == 0
	return res, nil
}

// setupTimes holds each setup repetition's wall times in seconds.
type setupTimes struct{ train, boot, total []float64 }

// setup trains and boots the tier setups times, timing each, and keeps
// the last tier running.
func setup(r *reaper, cfg config) (string, *tier, setupTimes, error) {
	var st setupTimes
	var model string
	var t *tier
	for k := range setups {
		if t != nil {
			t.stop()
		}
		start := time.Now()
		var err error
		if model, err = train(r, cfg.dir); err != nil {
			return "", nil, st, err
		}
		trained := time.Now()
		if t, err = boot(r, cfg.dir, model); err != nil {
			return "", nil, st, fmt.Errorf("boot %d: %w", k+1, err)
		}
		booted := time.Now()
		st.train = append(st.train, trained.Sub(start).Seconds())
		st.boot = append(st.boot, booted.Sub(trained).Seconds())
		st.total = append(st.total, booted.Sub(start).Seconds())
	}
	return model, t, st, nil
}

// phase is one warm-up plus measured run of the workload on a tier.
type phase struct {
	traced  bool
	warmIDs []int
	samples []sample // measured requests only
	elapsed time.Duration
	before  usage
	after   usage
	rss     int64
	router  string
	reps    []string

	// Filled by the oracle.
	attempted, correct, non200, transport, wrong int
	problems                                     []string
}

func runPhase(ctx context.Context, t *tier, cfg config, src *bodySource, traced bool) (*phase, error) {
	wl := cfg.wl
	ctx, cancel := context.WithTimeout(ctx, cfg.measure+phaseSlack)
	defer cancel()
	c := newClient(cfg.conns)
	defer c.CloseIdleConnections()
	// Arrival times have their own stream, so both phases of a traced
	// run replay the same schedule.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	warm := plan{url: t.router.url, src: src, conns: cfg.conns, trace: traced, count: wl.warm}
	if wl.open {
		warm.dues = arrivals(rng, wl.warm, time.Duration(float64(wl.warm)/wl.rate*float64(time.Second)))
	}
	ws, _ := drive(ctx, c, warm)
	p := &phase{traced: traced, router: t.router.name, reps: t.replicaNames()}
	for _, s := range ws {
		p.warmIDs = append(p.warmIDs, s.id)
	}
	var err error
	if p.before, err = t.snapshot(); err != nil {
		return nil, err
	}
	m := plan{url: t.router.url, src: src, conns: cfg.conns, trace: traced, first: wl.warm}
	if wl.open {
		m.dues = arrivals(rng, wl.measured(cfg.measure), cfg.measure)
	} else {
		m.dur = cfg.measure
	}
	p.samples, p.elapsed = drive(ctx, c, m)
	if !wl.open && len(p.samples) >= len(src.reqs)-wl.warm {
		return nil, fmt.Errorf("%s: the closed loop used all %d prepared requests; raise closedCap", wl.name, len(src.reqs))
	}
	if p.after, err = t.snapshot(); err != nil {
		return nil, err
	}
	if p.rss, err = t.peakRSS(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *phase) measuredIDs() []int {
	ids := make([]int, len(p.samples))
	for i, s := range p.samples {
		ids[i] = s.id
	}
	return ids
}

func (p *phase) name() string {
	if p.traced {
		return "traced"
	}
	return "untraced"
}

// summary is the phase's accounting: requests by outcome, the latency
// tail with its sample count and how many samples lie beyond p99
// (fewer than ten means the sample does not support a p99), and the
// generator's own lateness.
func (p *phase) summary() string {
	lat := p.latencies()
	return fmt.Sprintf("%s phase over %.3fs: attempted=%d correct=%d non200=%d transport_errors=%d wrong=%d fail_ratio=%.6g\n"+
		"    p50_ms=%.4f p99_ms=%.4f ms from due time; latency samples=%d beyond_p99=%d; generator late_p99_ms=%.4f",
		p.name(), p.elapsed.Seconds(), p.attempted, p.correct, p.non200, p.transport, p.wrong,
		float64(p.attempted-p.correct)/float64(max(p.attempted, 1)),
		percentile(lat, 0.5), percentile(lat, 0.99), len(lat), beyond(len(lat), 0.99), p.lateP99())
}

// latencies returns the sorted due-to-answer latencies of the correct
// answers, in milliseconds.
func (p *phase) latencies() []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.status == 200 && !s.wrong {
			out = append(out, ms(s.latency()))
		}
	}
	sort.Float64s(out)
	return out
}

// lateP99 is the generator's own lateness at p99, in milliseconds.
func (p *phase) lateP99() float64 {
	var late []float64
	for _, s := range p.samples {
		if s.slept {
			late = append(late, ms(s.sent-s.due))
		}
	}
	sort.Float64s(late)
	return percentile(late, 0.99)
}

func (p *phase) cpuPerReq(names ...string) float64 {
	return ms(cpuDelta(p.before, p.after, names...)) / float64(max(p.correct, 1))
}

func (p *phase) endToEndValues(st setupTimes) map[string]float64 {
	lat := p.latencies()
	return map[string]float64{
		"p50_ms":         percentile(lat, 0.5),
		"throughput_rps": float64(p.correct) / p.elapsed.Seconds(),
		"cpu_ms_per_req": p.cpuPerReq(),
		"success_ratio":  float64(p.correct) / float64(max(p.attempted, 1)),
		"rss_mb":         float64(p.rss) / (1 << 20),
		"setup_s":        median(st.total),
	}
}

func (p *phase) layerValues(plain *phase, src *bodySource, st setupTimes) map[string]float64 {
	lat := p.latencies()
	tracedP50 := percentile(lat, 0.5)
	var parse, cache, queue, batchSelf, rungSelf, forward, direct []float64
	for _, s := range p.samples {
		if s.status != 200 || s.wrong {
			continue
		}
		sp := splitSpans(s.spans)
		parse = append(parse, sp.parse)
		cache = append(cache, sp.cache)
		queue = append(queue, sp.queue)
		batchSelf = append(batchSelf, sp.batchSelf)
		rungSelf = append(rungSelf, sp.rungSelf)
		forward = append(forward, sp.forward)
		direct = append(direct, ms(s.latency())-sp.envelope/1e3)
	}
	v := map[string]float64{
		"serve.parse_us":      median(parse),
		"serve.cache_us":      median(cache),
		"serve.queue_us":      median(queue),
		"serve.batch_self_us": median(batchSelf),
		"serve.rung_self_us":  median(rungSelf),
		"serve.forward_us":    median(forward),
	}
	hits := delta(p.before, p.after, "serve_cache_hits_total", p.reps...)
	misses := delta(p.before, p.after, "serve_cache_misses_total", p.reps...)
	// The hop is the residual: traced p50 minus every span self time,
	// so the breakdown sums to the traced latency by construction.
	v["cluster.hop_ms"] = tracedP50 - selfTimeSum(v)/1e3
	v["cluster.hop_direct_ms"] = median(direct)
	v["cluster.attempts_per_req"] = ratio(
		delta(p.before, p.after, "router_request_attempts_sum", p.router),
		delta(p.before, p.after, "router_request_attempts_count", p.router))
	v["cluster.cpu_ms_per_req"] = p.cpuPerReq(p.router)
	v["serve.cpu_ms_per_req"] = p.cpuPerReq(p.reps...)
	v["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["serve.batch_size_mean"] = ratio(
		delta(p.before, p.after, "serve_batch_size_sum", p.reps...),
		delta(p.before, p.after, "serve_batch_size_count", p.reps...))
	v["serve.cache_evictions"] = delta(p.before, p.after, "serve_cache_evictions_total", p.reps...)
	v["setup.train_s"] = median(st.train)
	v["setup.boot_s"] = median(st.boot)
	v["loadgen.late_p99_ms"] = p.lateP99()
	v["loadgen.body_kb"] = p.bodyKB(src)
	v["trace.p50_ms"] = tracedP50
	v["trace.overhead_ms"] = tracedP50 - percentile(plain.latencies(), 0.5)
	return v
}

// selfTimes are the replica's span self-time metrics, in microseconds.
var selfTimes = []string{"serve.parse_us", "serve.cache_us", "serve.queue_us", "serve.batch_self_us", "serve.rung_self_us", "serve.forward_us"}

func selfTimeSum(vals map[string]float64) float64 {
	var sum float64
	for _, name := range selfTimes {
		sum += vals[name]
	}
	return sum
}

// bodyKB is the mean request body size of the measured requests, in KiB.
func (p *phase) bodyKB(src *bodySource) float64 {
	total := 0
	for _, s := range p.samples {
		total += src.size(s.id)
	}
	return float64(total) / 1024 / float64(max(len(p.samples), 1))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fill copies the table's metrics into the result; a value the run
// could not measure is a problem, not a zero.
func (res *result) fill(vals map[string]float64) {
	for _, m := range res.table {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, fmt.Sprintf("metric %s was not measured", m.name))
			v = 0
		}
		res.Metrics[m.name] = valued{Value: v, Unit: m.unit}
	}
}

func (res *result) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%d trace=%v connections=%d\n",
		cfg.wl.name, cfg.seed, int(cfg.measure.Seconds()), cfg.trace, cfg.conns)
	fmt.Fprintf(w, "  why: %s\n", cfg.wl.why)
	for _, n := range res.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, m := range res.table {
		v := res.Metrics[m.name]
		line := fmt.Sprintf("  %-26s %14.4f %s", m.name, v.Value, v.Unit)
		if m.moves != "" {
			line += "   (moves " + m.moves + ")"
		}
		fmt.Fprintln(w, line)
	}
	if len(res.problems) == 0 {
		fmt.Fprintln(w, "  checks: answer oracle and workload self-checks hold")
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "  INVALID: "+p)
	}
	line, err := json.Marshal(res)
	if err != nil { // every value was checked finite by fill
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}
