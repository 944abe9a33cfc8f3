package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// benchPredict drives the full handler path — parse, cache, batch
// dispatch, ladder, render — for one body without network overhead.
func benchPredict(b *testing.B, body []byte, mutate func(*Config)) {
	s, _ := newTestServer(b, mutate)
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
}

// BenchmarkPredictCached is the steady-state hot path: every request
// after the first is answered from the prediction cache. Guarded by
// scripts/benchgate.
func BenchmarkPredictCached(b *testing.B) {
	benchPredict(b, matrixJSON(24, 2), nil)
}

// BenchmarkPredictUncached forces every request through batch dispatch
// and a full forward pass (cache disabled). Requests arrive one at a
// time on an idle server, so each goes straight to a worker. Guarded by
// scripts/benchgate.
func BenchmarkPredictUncached(b *testing.B) {
	benchPredict(b, matrixJSON(24, 2), func(c *Config) { c.CacheSize = 0 })
}

// BenchmarkPredictUncachedLarge is BenchmarkPredictUncached on
// BenchmarkDecode's 2048-row body (about 450 KiB): the miss path of
// perfbench's cold-saturate workload, whose cost is reading and
// scanning the body and building the pattern. Guarded by
// scripts/benchgate.
func BenchmarkPredictUncachedLarge(b *testing.B) {
	benchPredict(b, largeBody(), func(c *Config) { c.CacheSize = 0 })
}

// BenchmarkPredictFeedback is the cached hot path with feedback logging
// enabled — the overhead budget for the continual-learning capture
// (Record is non-blocking; the cost allowed on the serving path is
// building the entry and the channel send). Guarded by
// scripts/benchgate.
func BenchmarkPredictFeedback(b *testing.B) {
	benchPredict(b, matrixJSON(24, 2), func(c *Config) {
		c.FeedbackDir = b.TempDir()
		c.FeedbackEstimates = false
	})
}

// BenchmarkDecode times DecodeMatrixMeta (scan, then build the matrix)
// across body sizes: the 24-row body of BenchmarkPredict*, the 64
// bodies of loadgen's default pool (about 59 KiB each) taken in turn,
// and a 2048-row body (about 450 KiB) with one entry spliced out of
// order at the head of its list. Guarded by scripts/benchgate.
func BenchmarkDecode(b *testing.B) {
	var pool [][]byte
	for _, sp := range synthgen.SampleSpecs(64, 1, 384) {
		pool = append(pool, renderBody(synthgen.Build(sp)))
	}
	for _, tc := range []struct {
		name   string
		bodies [][]byte
	}{
		{"small", [][]byte{matrixJSON(24, 2)}},
		{"pool", pool},
		{"large", [][]byte{largeBody()}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := context.Background()
			lim := sparse.DefaultLimits()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeMatrixMeta(ctx, tc.bodies[i%len(tc.bodies)], "application/json", lim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// largeBody is a 2048-row power-law body (about 450 KiB) with one entry
// spliced out of row-major order at the head of its list.
func largeBody() []byte {
	large := renderBody(synthgen.PowerLaw(2048, 12, 1.8, 7))
	head := bytes.Index(large, []byte(`"entries":[`)) + len(`"entries":[`)
	return bytes.Join([][]byte{large[:head], []byte("[2047,3,1],"), large[head:]}, nil)
}

// renderBody renders m as the JSON predict body cmd/loadgen sends.
func renderBody(m *sparse.COO) []byte {
	var req predictRequest
	req.Rows, req.Cols = m.Dims()
	for _, e := range m.Entries() {
		req.Entries = append(req.Entries, [3]float64{float64(e.Row), float64(e.Col), e.Val})
	}
	body, _ := json.Marshal(req)
	return body
}
