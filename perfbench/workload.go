package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// workload is one named traffic mix driven against the router.
type workload struct {
	name string
	why  string
	// open selects an open loop: seeded Poisson arrivals at rate per
	// second. Otherwise conns clients each wait for their answer before
	// sending again.
	open bool
	rate float64
	// warm is the number of untimed requests sent before the measured
	// phase; hot-zipf's first ones post every pool pattern once.
	warm int
	// newSource builds the first n requests of the workload's body
	// sequence; the same seed always yields the same sequence.
	newSource func(seed int64, n int) (*bodySource, error)
}

// measured is how many requests a measured phase of duration d may
// send: an open loop's arrivals, or closedCap per second.
func (w workload) measured(d time.Duration) int {
	if w.open {
		return int(math.Round(w.rate * d.Seconds()))
	}
	return int(closedCap * d.Seconds())
}

// The pool seed and sizes mirror cmd/loadgen's defaults, so hot-zipf
// replays the same 64 matrices loadgen does; the workload seed drives
// the popularity draws and the arrival times.
const (
	poolSize = 64
	poolSeed = 1
	poolMaxN = 384
	zipfS    = 1.2
	// baseSeed fixes the cold workloads' base matrices; the workload seed
	// picks which base each request splices and where.
	baseSeed = 7
	// closedCap bounds the closed-loop request sequence at this many
	// requests per measured second, several times the tier's capacity.
	closedCap = 400
)

var workloads = []workload{
	{
		name: "hot-zipf",
		why:  "Zipf(1.2) draws over loadgen's 64-matrix pool at 80 rps, all warmed: cost is decode, fingerprint, cache and render, with no queue or forward pass.",
		open: true, rate: 80, warm: poolSize + 40,
		newSource: hotZipfSource,
	},
	{
		name: "cold-small",
		why:  "Distinct ~9 KB patterns at 100 rps: every request misses the cache and arrives alone, so batch-window idle and the forward pass dominate.",
		open: true, rate: 100, warm: 50,
		newSource: func(seed int64, n int) (*bodySource, error) {
			return splicedSource(smallBases(), seed, n)
		},
	},
	{
		name: "cold-saturate",
		why:  "Distinct 2048-row (~450 KB) patterns from nproc closed-loop clients: the CPU-bound miss path, whose throughput is the tier's capacity.",
		open: false, warm: 10,
		newSource: func(seed int64, n int) (*bodySource, error) {
			return splicedSource(largeBases(), seed, n)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// base is one matrix rendered as a predict body, cut where an entry
// can be spliced in: body = head + tail, head ending in `"entries":[`.
type base struct {
	rows, cols int
	nnz        int
	head, tail []byte
}

// newBase renders m as the JSON predict body cmd/loadgen sends.
func newBase(m *sparse.COO) (base, error) {
	type req struct {
		Rows    int          `json:"rows"`
		Cols    int          `json:"cols"`
		Entries [][3]float64 `json:"entries"`
	}
	rows, cols := m.Dims()
	r := req{Rows: rows, Cols: cols, Entries: make([][3]float64, 0, m.NNZ())}
	for _, e := range m.Entries() {
		r.Entries = append(r.Entries, [3]float64{float64(e.Row), float64(e.Col), e.Val})
	}
	body, err := json.Marshal(r)
	if err != nil {
		return base{}, err
	}
	cut := bytes.Index(body, []byte(`"entries":[`))
	if cut < 0 || m.NNZ() == 0 {
		return base{}, fmt.Errorf("matrix %dx%d has no entries to splice before", rows, cols)
	}
	cut += len(`"entries":[`)
	return base{rows: rows, cols: cols, nnz: m.NNZ(), head: body[:cut], tail: body[cut:]}, nil
}

// splice returns the parts of b's body with one extra entry [r,c,1]
// inserted at the head of its entry list. The parts are sent as they
// are, so a spliced body costs no copy of the base.
func splice(b base, r, c int) [][]byte {
	return [][]byte{b.head, []byte(fmt.Sprintf("[%d,%d,1],", r, c)), b.tail}
}

// request is one body of a sequence: a base, and the spliced-in entry
// (nil for an unmodified pool body).
type request struct {
	base  int
	extra []byte
}

// bodySource is a workload's deterministic request sequence.
type bodySource struct {
	bases  []base
	reqs   []request
	splice bool // reqs carry a unique spliced entry each
}

// key identifies a distinct body: pool bodies repeat, spliced ones never do.
func (s *bodySource) key(id int) int {
	if s.splice {
		return id
	}
	return -1 - s.reqs[id].base
}

func (s *bodySource) parts(id int) [][]byte {
	q := s.reqs[id]
	b := s.bases[q.base]
	if q.extra == nil {
		return [][]byte{b.head, b.tail}
	}
	return [][]byte{b.head, q.extra, b.tail}
}

// body returns request id's body as one slice (a copy).
func (s *bodySource) body(id int) []byte {
	return bytes.Join(s.parts(id), nil)
}

func (s *bodySource) size(id int) int {
	n := 0
	for _, p := range s.parts(id) {
		n += len(p)
	}
	return n
}

func (s *bodySource) reader(id int) io.Reader {
	parts := s.parts(id)
	rs := make([]io.Reader, len(parts))
	for i, p := range parts {
		rs[i] = bytes.NewReader(p)
	}
	return io.MultiReader(rs...)
}

// hotZipfSource posts every pool pattern once, to warm the caches, and
// then draws from the pool by Zipf popularity.
func hotZipfSource(seed int64, n int) (*bodySource, error) {
	specs := synthgen.SampleSpecs(poolSize, poolSeed, poolMaxN)
	s := &bodySource{}
	for _, sp := range specs {
		b, err := newBase(synthgen.Build(sp))
		if err != nil {
			return nil, err
		}
		s.bases = append(s.bases, b)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(poolSize-1))
	s.reqs = make([]request, n)
	for i := range s.reqs {
		if i < poolSize {
			s.reqs[i] = request{base: i}
		} else {
			s.reqs[i] = request{base: int(zipf.Uint64())}
		}
	}
	return s, nil
}

// splicedSource builds n requests over bases, each with one extra
// nonzero at a position no base pattern and no earlier request holds,
// so every body has its own sparsity pattern. A base stops taking
// requests once half its cells are occupied, which keeps the draw
// cheap; running out of room is an error, not a repeat.
func splicedSource(mats []*sparse.COO, seed int64, n int) (*bodySource, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &bodySource{splice: true}
	taken := make([]map[int64]bool, len(mats))
	for i, m := range mats {
		b, err := newBase(m)
		if err != nil {
			return nil, err
		}
		s.bases = append(s.bases, b)
		taken[i] = make(map[int64]bool, m.NNZ())
		for k := range m.Rows {
			taken[i][int64(m.Rows[k])*int64(b.cols)+int64(m.Cols[k])] = true
		}
	}
	s.reqs = make([]request, 0, n)
	for len(s.reqs) < n {
		open := make([]int, 0, len(s.bases))
		for i, b := range s.bases {
			if 2*len(taken[i]) < b.rows*b.cols {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			return nil, fmt.Errorf("bases have room for only %d distinct splices, need %d", len(s.reqs), n)
		}
		bi := open[rng.Intn(len(open))]
		b := s.bases[bi]
		r, c := rng.Intn(b.rows), rng.Intn(b.cols)
		key := int64(r)*int64(b.cols) + int64(c)
		if taken[bi][key] {
			continue
		}
		taken[bi][key] = true
		s.reqs = append(s.reqs, request{base: bi, extra: splice(b, r, c)[1]})
	}
	return s, nil
}

// smallBases are cold-small's matrices: 24 to 128 rows from several
// structural families, about 9 KB of JSON on average.
func smallBases() []*sparse.COO {
	return []*sparse.COO{
		synthgen.Random(24, 24, 200, baseSeed),
		synthgen.Banded(40, 4, 1, baseSeed),
		synthgen.MultiDiag(64, 6, 0.95, baseSeed),
		synthgen.Uniform(96, 4, 1, baseSeed),
		synthgen.PowerLaw(112, 4, 1.8, baseSeed),
		synthgen.Random(128, 128, 420, baseSeed),
	}
}

// largeBases are cold-saturate's matrices: 2048 rows and about 16k
// nonzeros (~450 KB of JSON) each.
func largeBases() []*sparse.COO {
	return []*sparse.COO{
		synthgen.Banded(2048, 4, 0.9, baseSeed),
		synthgen.MultiDiag(2048, 14, 0.95, baseSeed),
		synthgen.Uniform(2048, 8, 2, baseSeed),
		synthgen.PowerLaw(2048, 12, 1.8, baseSeed),
		synthgen.Random(2048, 2048, 16000, baseSeed),
	}
}

// arrivals returns n seeded Poisson arrival offsets over window: given
// its count, a Poisson process's arrival times are n sorted uniform
// draws. Fixing the count keeps the offered load identical across
// seeds while the gaps stay exponential.
func arrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
