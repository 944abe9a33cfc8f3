package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// parkWorkers holds every batch in testHookPreBatch until the returned
// release is called. It starts requests 0..Workers-1 one at a time and
// waits for each to park a worker, so each runs in a batch of its own
// and every later request can only queue: the dispatcher takes one and
// waits for a free worker slot, the rest stay in the job channel.
func parkWorkers(t *testing.T, s *Server, start func(i int)) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	var parked atomic.Int32
	s.testHookPreBatch = func() {
		parked.Add(1)
		<-hold
	}
	for i := 0; i < s.cfg.Workers; i++ {
		start(i)
		waitFor(t, fmt.Sprintf("worker %d parked", i), func() bool { return int(parked.Load()) == i+1 })
	}
	return sync.OnceFunc(func() { close(hold) })
}

// waitQueued waits until n jobs are in the server with every worker
// parked: one per parked batch, one held by the dispatcher, the rest
// queued.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d jobs queued", n), func() bool { return len(s.jobs) == n-s.cfg.Workers-1 })
}

// TestBatchesFormFromBacklog: batches form only from backlog. With
// every worker busy, queued requests are coalesced into batches of at
// most BatchMax; a lone request on an idle server runs alone.
func TestBatchesFormFromBacklog(t *testing.T) {
	t.Run("backlog", func(t *testing.T) {
		const workers, batchMax = 2, 4
		const n = workers*batchMax + 3
		s, _ := newTestServer(t, func(c *Config) {
			c.CacheSize = 0
			c.Workers = workers
			c.BatchMax = batchMax
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		codes := make([]int, n)
		var wg sync.WaitGroup
		start := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Distinct sizes: every request is a distinct uncached job.
				code, _, _, err := postPredictErr(ts, matrixJSON(10+i, 1), "application/json")
				if err != nil {
					t.Error(err)
				}
				codes[i] = code
			}()
		}
		release := parkWorkers(t, s, start)
		defer release()
		for i := workers; i < n; i++ {
			start(i)
		}
		waitQueued(t, s, n)
		release()
		wg.Wait()

		for i, code := range codes {
			if code != http.StatusOK {
				t.Errorf("request %d: status %d, want 200", i, code)
			}
		}
		page := scrapeMetrics(t, ts)
		batches := metricValue(t, page, "serve_batches_total")
		if jobs := metricValue(t, page, "serve_batch_jobs_total"); jobs != n {
			t.Fatalf("serve_batch_jobs_total = %g, want %d", jobs, n)
		}
		if batches >= n {
			t.Fatalf("%g batches for %d backlogged requests: nothing coalesced", batches, n)
		}
		if atMax := labeledMetric(page, fmt.Sprintf(`serve_batch_size_bucket{le="%d"}`, batchMax)); atMax != batches {
			t.Fatalf("%g of %g batches within BatchMax=%d", atMax, batches, batchMax)
		}
		if waits := labeledMetric(page, "serve_queue_wait_seconds_count{}"); waits != n {
			t.Fatalf("serve_queue_wait_seconds_count = %g, want %d", waits, n)
		}
	})

	t.Run("lone", func(t *testing.T) {
		s, _ := newTestServer(t, func(c *Config) { c.CacheSize = 0 })
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		if code, _, _ := postPredict(t, ts, matrixJSON(24, 2), "application/json"); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		page := scrapeMetrics(t, ts)
		if batches := metricValue(t, page, "serve_batches_total"); batches != 1 {
			t.Fatalf("serve_batches_total = %g, want 1", batches)
		}
		if ones := labeledMetric(page, `serve_batch_size_bucket{le="1"}`); ones != 1 {
			t.Fatalf("lone request's batch size bucket le=1 = %g, want 1", ones)
		}
	})
}
