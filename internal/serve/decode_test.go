package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dtree"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// decodeQuirks are bodies at the edges of the JSON grammar the scanner
// must treat exactly as the reflective reference did.
var decodeQuirks = []string{
	`{"rows":3,"cols":3,"entries":[[0,0,1],[1,2,-4]]}`,
	`{"rows":3,"cols":3,"entries":[[0,0,1]]} garbage`,
	`{"ROWS":3,"Cols":3,"entries":[[0,0,1]],"spmv_Seconds":0.5}`,
	`{"rowſ":3,"cols":3,"entries":[[2,1,1]]}`,
	`{"rows":9,"rows":3,"cols":3,"entries":[[2,2,1]]}`,
	`{"rows":3,"rows":null,"cols":3,"entries":[[0,0,1],null,[null,1,2]],"spmv_seconds":null}`,
	`{"rows":3,"cols":3,"entries":[[1],[2,2],[0,1,2,3],[1,1,1,"x",{"a":[true,false,null]},1e400]]}`,
	`{"rows":3,"cols":3,"entries":[[1e0,2E0,1],[-0,0.0,5],[2,0,-0]]}`,
	`{"rows":3,"cols":3,"entries":[[0,0,1e-400],[1,1,1],[2,2,0e999999],[2,1,1e-300],[1,2,9e300]]}`,
	`{"rows":2.0,"cols":2,"entries":[]}`,
	`{"rows":1e0,"cols":2,"entries":[]}`,
	`{"rows":2,"cols":2,"entries":[[0,0,1e400]]}`,
	`{"rows":"2","cols":2,"entries":[]}`,
	`{"rows":2,"cols":2,"entries":[],"shape":1}`,
	`{"rows":2,"cols":2,"entries":[[0,0,"1"]]}`,
	`{"rows":2,"cols":2,"entries":[[0.5,0,1]]}`,
	`{"rows":2,"cols":2,"entries":[[2,0,1]]}`,
	`{"rows":2,"cols":2,"entries":[[-1,0,1]]}`,
	`{"rows":2,"cols":2,"entries":[[0,0,1],]}`,
	`{"rows":2,"cols":2,"entries":[[01,0,1]]}`,
	// Duplicates: summed in NewCOO's order, dropped when they cancel.
	`{"rows":3,"cols":3,"entries":[[1,1,2],[0,0,1],[1,1,-2]]}`,
	`{"rows":2,"cols":2,"entries":[[0,0,0.1],[0,0,0.2],[0,0,0.3],[1,1,1e-17],[1,1,1],[1,1,-1]]}`,
	// A spliced body: one entry out of row-major order at the head.
	`{"rows":4,"cols":4,"entries":[[3,1,1],[0,0,1],[1,1,2],[2,2,3]]}`,
	// Repeated lists: the last wins; null and [] reset it.
	`{"rows":3,"cols":3,"entries":[[1,1,5],[2,2,1]],"entries":[[0,0,1]]}`,
	`{"rows":3,"cols":3,"entries":[[1,1,5]],"entries":null,"entries":[null,[1]]}`,
	`{"rows":3,"cols":3,"entries":[[1,1,5]],"entries":[],"entries":[[null,2,1]]}`,
	`{"rows":3,"cols":3,"entries":[[1,1,5]],"entries":[null,[1]]}`,
	`{"rows":3,"cols":3,"spmv_seconds":-1,"entries":[[0,0,1]]}`,
	`{"rows":3,"cols":3,"spmv_seconds":2e9,"entries":[[0,0,1]]}`,
	`{"rows":3,"cols":3,"spmv_seconds":1e400,"entries":[[0,0,1]]}`,
	`{"rows":99999,"cols":3,"entries":[[0,0,1]`,
	`{"rows":3,"cols":3,"entries":[[0,0,1,[[[[{"k":[1,{"x":"\"\\\/\b\f\n\r\té"}]}]]]]]]}`,
	`{"rows":3,"cols":3,"entries":[[0,0,1,"bad\q"]]}`,
	`{} `, `null`, `[]`, `"x"`, ``, `{`, `{"rows":3,}`,
}

// FuzzDecodeDifferential runs the scanner and the reflective reference
// decoder (decode_ref_test.go) on the same body. They must agree on
// accept/reject; accepted bodies must give the same client timing and
// the same fingerprint on every scanner path (the one-pass
// DecodeMatrixMeta, the router's Fingerprint, and the replica's
// scan-then-build). DecodeMatrixMeta must give the reference's
// dimensions and canonical Rows/Cols/Vals exactly; scan-then-build,
// which builds the served pattern, must give the same dimensions and
// Rows/Cols with every value 1.
// Rejections must map to 400/413/422 on both sides and to the same
// status, except that the scanner answers 413 where the reference
// answered 400 when a cap trips before the malformation: the reference
// decoded the whole body before it looked at any cap.
//
// The scanner may reject what the reference accepted only in these
// named cases (see jsonScan):
//   - a cap trips on a rows, cols or entries value that a later repeat
//     of the same key replaced: caps are enforced as values are read;
//   - null inside an entries list that repeats a non-empty one
//     (errNullInRepeatedList): the reference kept a stale entry of the
//     earlier list there;
//   - dimensions above 1<<31 with no cap configured. The limits used
//     here always cap, so this case cannot arise.
func FuzzDecodeDifferential(f *testing.F) {
	for _, q := range decodeQuirks {
		f.Add(q, "application/json")
	}
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n", "text/matrix-market")
	lim := sparse.Limits{MaxRows: 1 << 10, MaxCols: 1 << 10, MaxNNZ: 1 << 8, MaxLineBytes: 1 << 8}
	f.Fuzz(func(t *testing.T, body, contentType string) {
		checkDifferential(t, []byte(body), contentType, lim)
	})
}

func checkDifferential(t *testing.T, data []byte, contentType string, lim sparse.Limits) {
	t.Helper()
	ctx := context.Background()
	want, wantSec, wantErr := refDecodeMatrixMeta(ctx, data, contentType, lim)
	got, gotSec, err := DecodeMatrixMeta(ctx, data, contentType, lim)
	fp, fpErr := Fingerprint(ctx, data, contentType, lim)
	built, builtFP, builtErr := scanThenBuild(ctx, data, contentType, lim)

	// The scanner's paths agree with each other exactly.
	for _, e := range []error{fpErr, builtErr} {
		if (e == nil) != (err == nil) || (err != nil && IngestStatus(e) != IngestStatus(err)) {
			t.Fatalf("scanner paths disagree: DecodeMatrixMeta %v, Fingerprint %v, scan-then-build %v", err, fpErr, builtErr)
		}
	}

	if err != nil || wantErr != nil {
		if err == nil {
			t.Fatalf("scanner accepted a body the reference rejected (%v)", wantErr)
		}
		gs := IngestStatus(err)
		if gs != 400 && gs != 413 && gs != 422 {
			t.Fatalf("scanner rejection mapped to %d (%v)", gs, err)
		}
		if wantErr == nil {
			if !namedStricter(data, err) {
				t.Fatalf("scanner rejected (%v) a body the reference accepted, outside the named stricter cases", err)
			}
			return
		}
		ws := IngestStatus(wantErr)
		switch {
		case gs == ws:
		case gs == 413 && ws == 400:
			// The cap tripped before the scan reached the malformation:
			// with the caps lifted the scanner must still reject.
			if _, _, e := DecodeMatrixMeta(ctx, data, contentType, sparse.Unlimited()); e == nil {
				t.Fatalf("scanner 413 (%v) where the reference says 400 (%v), but accepts the body uncapped", err, wantErr)
			}
		default:
			t.Fatalf("scanner status %d (%v), reference %d (%v)", gs, err, ws, wantErr)
		}
		return
	}

	for name, pair := range map[string][2]*sparse.COO{
		"DecodeMatrixMeta": {got, want},
		"scan-then-build":  {built, unitValued(want)},
	} {
		if m, w := pair[0], pair[1]; !m.Equal(w) {
			t.Fatalf("%s matrix differs from the reference:\n got %v %v %v\nwant %v %v %v",
				name, m.Rows, m.Cols, m.Vals, w.Rows, w.Cols, w.Vals)
		}
	}
	if gotSec != wantSec {
		t.Fatalf("client seconds %v, reference %v", gotSec, wantSec)
	}
	if wfp := sparse.Fingerprint(want); fp != wfp || builtFP != wfp {
		t.Fatalf("fingerprints %x (Fingerprint) %x (scan) differ from the reference's %x", fp, builtFP, wfp)
	}
}

// unitValued returns m's pattern with every value 1: the matrix a
// replica serves for a body that decodes to m.
func unitValued(m *sparse.COO) *sparse.COO {
	u := *m
	u.Vals = make([]float64, len(m.Vals))
	for i := range u.Vals {
		u.Vals[i] = 1
	}
	return &u
}

// scanThenBuild is the replica's order: scan and fingerprint, then
// build the matrix as a cache miss would.
func scanThenBuild(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (*sparse.COO, uint64, error) {
	b, err := scanBody(ctx, data, contentType, lim)
	if err != nil {
		return nil, 0, err
	}
	defer b.release()
	m, err := b.matrix(ctx)
	return m, b.fp, err
}

// namedStricter reports whether a scanner rejection of a body the
// reference accepted is one of FuzzDecodeDifferential's named cases.
func namedStricter(data []byte, err error) bool {
	if errors.Is(err, errNullInRepeatedList) {
		return true
	}
	return errors.Is(err, sparse.ErrTooLarge) && repeatsCappedField(data)
}

// repeatsCappedField reports whether the top-level object names rows,
// cols or entries (matched as encoding/json matches) more than once.
func repeatsCappedField(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]int{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		for _, name := range []string{"rows", "cols", "entries"} {
			if strings.EqualFold(key, name) {
				if seen[name]++; seen[name] > 1 {
					return true
				}
			}
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return false
		}
	}
	return false
}

// bigBody renders rows×cols with n entries [i%rows, i%cols, 1.25].
func bigBody(rows, cols, n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"rows":%d,"cols":%d,"entries":[`, rows, cols)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d,1.25]", i%rows, i%cols)
	}
	b.WriteString("]}")
	return b.Bytes()
}

// allocatedBytes reports the bytes f allocates, averaged over runs.
func allocatedBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCapsEnforcedDuringScan: a body over the nonzero cap and one whose
// rows are over the row cap are rejected with 413 while scanning,
// before their entry lists are materialised.
func TestCapsEnforcedDuringScan(t *testing.T) {
	lim := sparse.Limits{MaxRows: 1 << 12, MaxCols: 1 << 12, MaxNNZ: 64}
	ctx := context.Background()
	cases := map[string][]byte{
		"nnz cap":        bigBody(100, 100, lim.MaxNNZ+1),
		"nnz cap, long":  bigBody(100, 100, 50_000),
		"rows cap, long": bigBody(lim.MaxRows+1, 100, 50_000),
	}
	for name, body := range cases {
		for _, path := range []struct {
			name string
			run  func() error
		}{
			{"DecodeMatrixMeta", func() error { _, _, err := DecodeMatrixMeta(ctx, body, "application/json", lim); return err }},
			{"Fingerprint", func() error { _, err := Fingerprint(ctx, body, "application/json", lim); return err }},
		} {
			if err := path.run(); IngestStatus(err) != http.StatusRequestEntityTooLarge || !errors.Is(err, sparse.ErrTooLarge) {
				t.Fatalf("%s, %s: got %v, want a 413 cap error", name, path.name, err)
			}
			if len(body) < 100_000 {
				continue
			}
			// Materialising 50k entries costs at least 8 bytes each; the
			// scan stops after at most 65 keys.
			if n := allocatedBytes(5, func() { path.run() }); n > uint64(len(body))/64 {
				t.Errorf("%s, %s: %d bytes allocated for a %d-byte body rejected by a cap", name, path.name, n, len(body))
			}
		}
	}
}

// repeatReader yields an endless run of one byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestBodyReadBounds: a body that declares MaxBodyBytes and sends 10
// bytes answers 400 and allocates no more than bodyPrealloc for the
// claim; a body over MaxBodyBytes answers 413, declared or chunked;
// chunked bodies and a declared body past bodyPrealloc still decode.
func TestBodyReadBounds(t *testing.T) {
	const limit = 8 << 20
	s, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = limit })
	h := s.Handler()
	post := func(body io.Reader, length int64) int {
		req := httptest.NewRequest("POST", "/v1/predict", body)
		req.ContentLength = length
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr.Code
	}
	small, large := matrixJSON(24, 2), bigBody(4096, 4096, 100_000)
	if len(large) <= bodyPrealloc {
		t.Fatalf("large body is %d bytes, not past bodyPrealloc", len(large))
	}
	for _, tc := range []struct {
		name   string
		body   func() io.Reader
		length int64
		want   int
	}{
		{"short", func() io.Reader { return strings.NewReader(`{"rows":1,`) }, limit, http.StatusBadRequest},
		{"declared over", func() io.Reader { return io.LimitReader(repeatReader(' '), limit+1) }, limit + 1, http.StatusRequestEntityTooLarge},
		{"chunked over", func() io.Reader { return io.LimitReader(repeatReader(' '), limit+1) }, -1, http.StatusRequestEntityTooLarge},
		{"chunked", func() io.Reader { return bytes.NewReader(small) }, -1, http.StatusOK},
		{"declared large", func() io.Reader { return bytes.NewReader(large) }, int64(len(large)), http.StatusOK},
		{"chunked large", func() io.Reader { return bytes.NewReader(large) }, -1, http.StatusOK},
	} {
		if code := post(tc.body(), tc.length); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
	if n := allocatedBytes(5, func() { post(strings.NewReader(`{"rows":1,`), limit) }); n > bodyPrealloc+64<<10 {
		t.Errorf("a 10-byte body declaring %d bytes allocated %d bytes", limit, n)
	}
}

// TestJSONDuplicatePolicy: repeated JSON coordinates are summed by
// default and rejected as malformed under DupReject, in order and out
// of order, on every decode path and through the handler.
func TestJSONDuplicatePolicy(t *testing.T) {
	ctx := context.Background()
	bodies := []string{
		`{"rows":3,"cols":3,"entries":[[0,0,1],[1,1,2],[1,1,3]]}`,
		`{"rows":3,"cols":3,"entries":[[1,1,2],[0,0,1],[1,1,3]]}`,
	}
	for _, body := range bodies {
		sum := sparse.Limits{MaxRows: 8, MaxCols: 8, MaxNNZ: 8}
		m, err := DecodeMatrix(ctx, []byte(body), "application/json", sum)
		if err != nil {
			t.Fatalf("DupSum %s: %v", body, err)
		}
		if want := sparse.MustCOO(3, 3, []sparse.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 5}}); !m.Equal(want) {
			t.Fatalf("DupSum %s: got %v %v %v", body, m.Rows, m.Cols, m.Vals)
		}

		reject := sum
		reject.Duplicates = sparse.DupReject
		if _, err := DecodeMatrix(ctx, []byte(body), "application/json", reject); !errors.Is(err, sparse.ErrMalformed) || IngestStatus(err) != 400 {
			t.Fatalf("DupReject %s: DecodeMatrix got %v, want 400 malformed", body, err)
		}
		if _, err := Fingerprint(ctx, []byte(body), "application/json", reject); !errors.Is(err, sparse.ErrMalformed) {
			t.Fatalf("DupReject %s: Fingerprint got %v, want malformed", body, err)
		}
	}

	s, _ := newTestServer(t, func(c *Config) {
		c.Limits = sparse.DefaultLimits()
		c.Limits.Duplicates = sparse.DupReject
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _, _ := postPredict(t, ts, []byte(bodies[1]), "application/json"); code != http.StatusBadRequest {
		t.Fatalf("DupReject server: status %d, want 400", code)
	}
	if code, _, _ := postPredict(t, ts, []byte(`{"rows":3,"cols":3,"entries":[[1,1,2],[0,0,1]]}`), "application/json"); code != http.StatusOK {
		t.Fatalf("DupReject server, no repeats: status %d, want 200", code)
	}
}

// TestPatternIgnoresValues: values never reach the pattern except by
// cancelling. Two bodies with one pattern and different nonzero values
// get one fingerprint, one representation and one prediction from
// both the dtree and the CNN selector; a repeated coordinate whose
// values sum to zero removes that coordinate.
func TestPatternIgnoresValues(t *testing.T) {
	ctx := context.Background()
	lim := sparse.DefaultLimits()
	a := []byte(`{"rows":6,"cols":6,"entries":[[0,0,1],[1,1,2],[2,3,3],[4,4,4],[5,0,5],[3,2,6]]}`)
	b := []byte(`{"rows":6,"cols":6,"entries":[[0,0,-7.5],[1,1,1e-9],[2,3,3e200],[4,4,-4],[5,0,0.25],[3,2,1]]}`)

	fpA, err := Fingerprint(ctx, a, "application/json", lim)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := Fingerprint(ctx, b, "application/json", lim)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Fatalf("values changed the fingerprint: %x vs %x", fpA, fpB)
	}
	ma, _ := DecodeMatrix(ctx, a, "application/json", lim)
	mb, _ := DecodeMatrix(ctx, b, "application/json", lim)

	cfg := selector.DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	cfg.Represent.Size, cfg.Represent.Bins = 16, 8
	ra, err := represent.Normalize(ma, cfg.Represent)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := represent.Normalize(mb, cfg.Represent)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("values changed the normalised representation")
	}
	dt := dtree.Heuristic(cfg.Formats)
	da, errA := dt.Predict(ma)
	db, errB := dt.Predict(mb)
	if da != db || (errA == nil) != (errB == nil) {
		t.Fatalf("values changed the dtree prediction: %v/%v vs %v/%v", da, errA, db, errB)
	}
	sel, err := selector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, pa, errA := sel.Predict(ma)
	sb, pb, errB := sel.Predict(mb)
	if sa != sb || !reflect.DeepEqual(pa, pb) || (errA == nil) != (errB == nil) {
		t.Fatalf("values changed the selector prediction: %v %v vs %v %v", sa, pa, sb, pb)
	}

	cancel := []byte(`{"rows":6,"cols":6,"entries":[[0,0,1],[1,1,2],[2,3,3],[4,4,4],[5,0,5],[3,2,6],[1,1,-2]]}`)
	fpC, err := Fingerprint(ctx, cancel, "application/json", lim)
	if err != nil {
		t.Fatal(err)
	}
	mc, _ := DecodeMatrix(ctx, cancel, "application/json", lim)
	if fpC == fpA || mc.NNZ() != ma.NNZ()-1 || fpC != sparse.Fingerprint(mc) {
		t.Fatalf("a cancelling repeat kept its coordinate: fp %x (base %x), nnz %d", fpC, fpA, mc.NNZ())
	}
}

// TestServedAnswerIgnoresValues: bodies with one pattern and different
// nonzero values (synthgen's own, negative, and of order 1e-300) get
// byte-identical answers, trace ID aside, from an uncached server, for
// one matrix of every synthgen family. That holds on the cnn rung, the
// dtree rung (breaker open) and the csr floor (breaker open, no tree),
// and a feedback-enabled server logs identical entries, patterns
// included, for each such pair.
func TestServedAnswerIgnoresValues(t *testing.T) {
	specs := map[synthgen.Family]synthgen.Spec{}
	for _, sp := range synthgen.SampleSpecs(400, 3, 160) {
		if _, ok := specs[sp.Family]; !ok {
			specs[sp.Family] = sp
		}
	}
	if len(specs) != len(synthgen.Families()) {
		t.Fatalf("sampled %d of %d families", len(specs), len(synthgen.Families()))
	}
	rng := rand.New(rand.NewSource(11))
	var groups [][][]byte // per family: bodies with one pattern
	for _, f := range synthgen.Families() {
		m := synthgen.Build(specs[f])
		negative, tiny := *m, *m
		negative.Vals, tiny.Vals = make([]float64, m.NNZ()), make([]float64, m.NNZ())
		for i := range m.Vals {
			negative.Vals[i] = -0.5 - 100*rng.Float64()
			tiny.Vals[i] = (1 + rng.Float64()) * 1e-300
		}
		groups = append(groups, [][]byte{renderBody(m), renderBody(&negative), renderBody(&tiny)})
	}

	fbDir := t.TempDir()
	for _, tc := range []struct {
		name   string
		rung   string
		mutate func(*Config)
		setup  func(*Server)
	}{
		{name: "cnn", rung: rungCNN},
		{name: "dtree", rung: rungDTree, setup: func(s *Server) { s.breaker.Failure() }},
		{name: "csr", rung: rungCSR, setup: func(s *Server) { s.breaker.Failure(); s.dtree = nil }},
		{name: "feedback", rung: rungCNN, mutate: func(c *Config) { c.FeedbackDir, c.FeedbackEstimates = fbDir, true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, func(c *Config) {
				c.CacheSize = 0
				c.BreakerThreshold, c.BreakerCooldown = 1, time.Hour
				if tc.mutate != nil {
					tc.mutate(c)
				}
			})
			if tc.setup != nil {
				tc.setup(s)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for g, bodies := range groups {
				var first []byte
				for i, body := range bodies {
					code, resp, bad := postPredict(t, ts, body, "application/json")
					if code != http.StatusOK || resp.Rung != tc.rung {
						t.Fatalf("family %v body %d: status %d rung %q (%s), want 200 from %s",
							synthgen.Families()[g], i, code, resp.Rung, bad.Error, tc.rung)
					}
					resp.TraceID = ""
					got, _ := json.Marshal(resp)
					if i == 0 {
						first = got
					} else if !bytes.Equal(got, first) {
						t.Fatalf("family %v: values changed the answer:\n%s\n%s", synthgen.Families()[g], first, got)
					}
				}
			}
		})
	}

	// The feedback server has shut down, so its log is complete.
	entries := readFeedbackDir(t, fbDir)
	if want := 3 * len(groups); len(entries) != want {
		t.Fatalf("%d feedback entries, want %d", len(entries), want)
	}
	for i, e := range entries {
		first := entries[i-i%3]
		e.Time = first.Time
		if len(e.PatRows) == 0 || !reflect.DeepEqual(e, first) {
			t.Fatalf("feedback entry %d differs from its family's first (or has no pattern):\n%+v\n%+v", i, e, first)
		}
	}
}

// countCtx counts Err calls. The scanner checks its context every 4096
// list elements, so the count tells how many passes read the entries.
type countCtx struct {
	context.Context
	errs *int
}

func (c countCtx) Err() error {
	*c.errs++
	return nil
}

// TestMissScansOnce: a cache miss on a body whose values are all finite
// nonzeros and whose coordinates do not repeat reads the entries once,
// sorting the keys in place when they are out of order, and builds the
// served pattern from the keys. A zero value makes the pattern depend
// on the values, which costs a second pass.
func TestMissScansOnce(t *testing.T) {
	sorted := matrixJSON(4096, 1)
	zero := bytes.Replace(sorted, []byte(",1]"), []byte(",0]"), 1)
	for _, tc := range []struct {
		name   string
		body   []byte
		passes int
	}{
		{"sorted", sorted, 1},
		{"unsorted", largeBody(), 1},
		{"zero value", zero, 2},
	} {
		errs := 0
		ctx := countCtx{context.Background(), &errs}
		b, err := scanBody(ctx, tc.body, "application/json", sparse.DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		perPass := b.scan.n / 4096
		m, err := b.matrix(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if errs != tc.passes*perPass {
			t.Errorf("%s: %d context checks, want %d (%d passes over %d entries)", tc.name, errs, tc.passes*perPass, tc.passes, perPass*4096)
		}
		for _, v := range m.Vals {
			if v != 1 {
				t.Fatalf("%s: served matrix holds value %v, want the unit pattern", tc.name, v)
			}
		}
	}
}

// TestHitBuildsNoMatrix: the router's fingerprint never builds a
// matrix for a JSON body, and a replica's warmed cache hit builds one
// only when feedback capture needs it. A built matrix costs at least 16
// bytes per nonzero (two int32 indices and a float64 value).
func TestHitBuildsNoMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	const n = 64
	body := matrixJSON(n, 40)
	m, err := DecodeMatrix(context.Background(), body, "application/json", sparse.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	matrixBytes := uint64(16 * m.NNZ())

	ctx := context.Background()
	router := allocatedBytes(20, func() {
		if _, err := Fingerprint(ctx, body, "application/json", sparse.DefaultLimits()); err != nil {
			t.Fatal(err)
		}
	})
	if router >= matrixBytes/4 {
		t.Errorf("router fingerprint allocated %d bytes per body; a matrix is %d", router, matrixBytes)
	}

	for _, feedback := range []bool{false, true} {
		s, _ := newTestServer(t, func(c *Config) {
			if feedback {
				c.FeedbackDir = t.TempDir()
			}
		})
		request := func(want string) {
			b, err := scanBody(ctx, body, "application/json", s.cfg.Limits)
			if err != nil {
				t.Fatal(err)
			}
			defer b.release()
			meta := &predictMeta{}
			if _, err := s.predictOne(ctx, b, meta); err != nil {
				t.Fatal(err)
			}
			if meta.cacheStatus != want {
				t.Fatalf("cache status %q, want %q", meta.cacheStatus, want)
			}
		}
		request("miss")
		hit := allocatedBytes(20, func() { request("hit") })
		t.Logf("feedback %v: %d bytes per hit, matrix %d, router %d", feedback, hit, matrixBytes, router)
		switch {
		case !feedback && hit >= matrixBytes/2:
			t.Errorf("warmed hit without feedback allocated %d bytes; a matrix is %d", hit, matrixBytes)
		case feedback && hit < matrixBytes:
			t.Errorf("warmed hit with feedback allocated %d bytes; recording it needs a %d-byte matrix", hit, matrixBytes)
		}
	}
}

// hangupCtx is the request context of a leader whose client hangs up
// while the leader's job is in flight: its first Err call waits until
// the test hangs up, so a build or wait that consults it sees the
// hang-up.
type hangupCtx struct {
	context.Context
	gone chan struct{}
}

func (c hangupCtx) Done() <-chan struct{} { return c.gone }

func (c hangupCtx) Err() error {
	select {
	case <-c.gone:
	case <-time.After(5 * time.Second):
	}
	return context.Canceled
}

// TestLeaderHangupDuringBuild: when the leader of a cache miss loses its
// client after the fingerprint, while it builds the matrix or waits for
// its job, the follower coalesced onto it still gets the answer.
func TestLeaderHangupDuringBuild(t *testing.T) {
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	s, _ := newTestServer(t, func(c *Config) { c.BatchMax = 1 })
	s.testHookPreBatch = func() { <-hold }

	body := matrixJSON(1000, 2)
	var bodies [2]*predictBody
	for i := range bodies {
		b, err := scanBody(context.Background(), body, "application/json", s.cfg.Limits)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	lctx := hangupCtx{Context: context.Background(), gone: make(chan struct{})}
	leader, follower := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := s.predictOne(lctx, bodies[0], &predictMeta{})
		leader <- err
	}()
	waitFor(t, "the leader in flight", func() bool {
		s.inflightMu.Lock()
		defer s.inflightMu.Unlock()
		_, ok := s.inflightFP[bodies[0].fp]
		return ok
	})
	go func() {
		_, err := s.predictOne(context.Background(), bodies[1], &predictMeta{})
		follower <- err
	}()
	waitFor(t, "the follower coalesced", func() bool { return s.met.dedupHits.Value() == 1 })

	close(lctx.gone)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("hung-up leader: %v, want context.Canceled", err)
	}
	release()
	if err := <-follower; err != nil {
		t.Fatalf("follower of a hung-up leader: %v", err)
	}
	for _, b := range bodies {
		b.release()
	}
}

// TestValueShapeMatchesParse: the nonzero and edge classification read
// from a token's digits agrees with strconv on every token it does not
// send to strconv.
func TestValueShapeMatchesParse(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "0.000", "0e999999", "1", "-1", "0.5", "123.456e-3", "1e300", "9.99e300",
		"1e-300", "0.0001e-296", "1e301", "1e-301", "100e299", "0.01e-299", "1e99999999999999999999",
		"-16.420166278412022", "1e-05",
	} {
		end, shape, ok := numberEnd([]byte(tok), 0)
		if !ok || end != len(tok) {
			t.Fatalf("%s: not one number token", tok)
		}
		nonzero := shape&numNonzero != 0
		edge := nonzero && onEdge([]byte(tok))
		v, err := parseFloatOrInf(tok)
		if edge {
			continue
		}
		if err != nil || (v != 0) != nonzero || math.IsInf(v, 0) {
			t.Errorf("%s: nonzero=%v, strconv %v %v", tok, nonzero, v, err)
		}
	}
	for _, tok := range append([]string{"1e301", "1e-301", "1e99999999999999999999", "0.0001e-297"}, longEdgeTokens()...) {
		if !onEdge([]byte(tok)) {
			t.Errorf("%.40s...: not classified as an edge exponent", tok)
		}
	}
}

// longEdgeTokens are value tokens whose long mantissa cancels a large
// exponent in a digit count: 0.(99999 zeros)1e1000000 counts as 1e0 and
// 1(100000 digits)e-1000000 as 1e0, though neither is a finite nonzero
// to strconv.
func longEdgeTokens() []string {
	return []string{
		"0." + strings.Repeat("0", 99_999) + "1e1000000",
		"1" + strings.Repeat("0", 100_000) + "e-1000000",
		"-" + strings.Repeat("9", 400),
		"0." + strings.Repeat("0", 400) + "1",
	}
}

// TestLongEdgeTokensMatchReference: bodies holding longEdgeTokens get
// the reference decoder's answer on every scanner path, the router's
// Fingerprint included.
func TestLongEdgeTokensMatchReference(t *testing.T) {
	lim := sparse.DefaultLimits()
	for _, tok := range longEdgeTokens() {
		for _, body := range []string{
			`{"rows":2,"cols":2,"entries":[[0,0,` + tok + `]]}`,
			`{"rows":2,"cols":2,"entries":[[1,1,1],[0,0,` + tok + `]]}`,
		} {
			checkDifferential(t, []byte(body), "application/json", lim)
		}
	}
}

func parseFloatOrInf(tok string) (float64, error) {
	var v float64
	err := json.Unmarshal([]byte(tok), &v)
	return v, err
}
