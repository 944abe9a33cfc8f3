package serve

import (
	"context"
	"errors"
	runtimemetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// job is one prediction request in flight between handler and worker.
type job struct {
	ctx      context.Context // job context: deadline budget (detached from any single client when coalescing is on)
	cancel   context.CancelFunc
	m        *sparse.COO
	fp       uint64
	tr       *obs.Trace // request trace (nil-safe); workers add queue/batch/rung spans
	enqueued time.Time  // when the handler submitted the job (queue span start)
	call     *call      // completion record, shared with coalesced duplicates

	// clientSec is the client-reported SpMV seconds riding the request
	// (0 = none), captured into the feedback log with the answer.
	clientSec float64

	// admitted marks a job holding an admission-limiter slot; released
	// guards the release so racing completion paths (worker, shutdown
	// sweep, overload) can never double-free it.
	admitted bool
	released atomic.Bool
}

type jobResult struct {
	pred selector.Prediction
	gen  uint64
	rung string
	err  error
}

// call is a single-flight completion record: the leader request that
// enqueued the job and every duplicate request that attached to it
// while it was in flight all wait on done. finish is idempotent, so
// the worker, the shutdown sweep and the overload path can race to
// answer without double-completing.
type call struct {
	once sync.Once
	done chan struct{}
	res  jobResult
}

func newCall() *call { return &call{done: make(chan struct{})} }

func (c *call) finish(r jobResult) {
	c.once.Do(func() { c.res = r; close(c.done) })
}

var errShutdown = errors.New("serve: shutting down")

// finishJob completes a job's call and retires its fingerprint from the
// single-flight window, so the next request for the same pattern starts
// a fresh computation (or hits the cache the leader just filled).
func (s *Server) finishJob(j *job, res jobResult) {
	s.inflightMu.Lock()
	if s.inflightFP[j.fp] == j.call {
		delete(s.inflightFP, j.fp)
	}
	s.inflightMu.Unlock()
	j.call.finish(res)
	// Return the admission slot exactly once, feeding the limiter the
	// job's whole time-in-system (queue wait included) — the latency the
	// SLO is written against.
	if j.admitted && s.adm != nil && j.released.CompareAndSwap(false, true) {
		s.adm.finish(time.Since(j.enqueued), res.err == nil)
	}
	if j.cancel != nil {
		j.cancel()
	}
}

// dispatch is the continuous-batching loop: it blocks for the first
// job, then for a free worker slot, then takes whatever backlog queued
// up meanwhile (up to BatchMax) without waiting for more. A lone
// request on an idle server reaches a worker at once; batches form only
// from the backlog that builds while every worker is busy, which is
// exactly when amortising per-batch bookkeeping pays.
func (s *Server) dispatch() {
	defer s.dispWG.Done()
	for {
		var first *job
		select {
		case first = <-s.jobs:
		case <-s.quit:
			s.drainJobs()
			return
		}
		// The gate closes only at shutdown.
		if !s.gate.acquire() {
			s.finishJob(first, jobResult{err: errShutdown})
			continue
		}
		batch := []*job{first}
	drain:
		for len(batch) < s.cfg.BatchMax {
			select {
			case j := <-s.jobs:
				batch = append(batch, j)
			default:
				break drain
			}
		}
		err := s.pool.Submit(func() {
			defer s.gate.release()
			s.runBatch(batch)
		})
		if err != nil {
			s.gate.release()
			s.answerAll(batch, jobResult{err: errShutdown})
		}
	}
}

// drainJobs answers any jobs still queued at shutdown so no handler
// goroutine is left waiting. (Shutdown waits for handlers before
// stopping the dispatcher, so this is normally empty.)
func (s *Server) drainJobs() {
	for {
		select {
		case j := <-s.jobs:
			s.finishJob(j, jobResult{err: errShutdown})
		default:
			return
		}
	}
}

// runBatch executes one micro-batch on a pool worker. Every job is
// guaranteed an answer: the degradation ladder cannot fail (the CSR
// floor is unconditional), and the deferred sweep covers a panic
// escaping between jobs (the pool contains the panic; the sweep keeps
// handlers from hanging).
func (s *Server) runBatch(batch []*job) {
	answered := 0
	defer func() {
		if answered < len(batch) {
			s.answerAll(batch[answered:], jobResult{err: errShutdown})
		}
	}()

	if s.testHookPreBatch != nil {
		s.testHookPreBatch()
	}
	batchStart := time.Now()
	sel := s.model.Load()
	gen := s.gen.Load()
	s.met.batches.Inc()
	s.met.batchJobs.Add(uint64(len(batch)))
	s.met.batchSize.Observe(float64(len(batch)))
	// The queue span closes for every member at pickup: time between the
	// handler's submit and the worker starting the batch. The always-on
	// histogram records the same interval.
	for _, j := range batch {
		wait := time.Since(j.enqueued)
		j.tr.ObserveSpanDur("queue", j.enqueued, wait)
		s.met.queueWait.Observe(wait.Seconds())
	}

	allocStart := heapAllocObjects()
	var mirrored []shadowSample
	for _, j := range batch {
		// Evict expired work at dequeue: a job whose context died while
		// queued (deadline spent, or the client hung up) gets its terminal
		// answer now instead of a forward pass nobody is waiting for. Under
		// overload this is the difference between burning the backlog and
		// burning CPU on it.
		if j.ctx.Err() != nil {
			s.met.queueExpired.Inc()
			s.finishJob(j, jobResult{err: errExpired})
			answered++
			continue
		}
		rungStart := time.Now()
		pred, rung := s.ladderPredict(j.ctx, sel, j.m)
		liveNs := time.Since(rungStart).Nanoseconds()
		if s.adm != nil && rung == rungCNN {
			// Feed the brownout controller the CNN rung's real cost.
			s.adm.noteCNN(float64(liveNs) / 1e9)
		}
		j.tr.ObserveSpan("rung:"+rung, rungStart)
		s.met.rungs.With(rungLabel(rung)).Inc()
		if pred.FellBack {
			s.met.fallbacks.With(reasonLabel(pred.Reason)).Inc()
		} else {
			s.met.predictions.With(formatLabel(pred.Format)).Inc()
			// Only healthy CNN answers are cached: a degraded answer
			// caused by a transient condition must not be replayed from
			// cache after the condition clears.
			s.cache.Add(j.fp, pred, gen)
			s.met.cacheSize.SetInt(uint64(s.cache.Len()))
		}
		// The batch span is the shared worker-side interval: from batch
		// pickup to this job's answer, covering head-of-batch waiting.
		j.tr.ObserveSpan("batch", batchStart)
		s.finishJob(j, jobResult{pred: pred, gen: gen, rung: rung})
		answered++
		// The answer is delivered; capture it for the feedback log and
		// queue the shadow mirror (run strictly after the whole batch is
		// answered — see shadow.go).
		s.recordFeedback(j.m, j.fp, pred, rung, gen, false, j.clientSec)
		if s.shouldShadow() {
			mirrored = append(mirrored, shadowSample{m: j.m, live: pred, liveNs: liveNs})
		}
	}
	// Allocation pressure per job: a process-wide heap-objects delta over
	// the batch, not a per-goroutine count — concurrent batches and GC
	// background work inflate it, so it is a trend gauge, not an exact
	// figure (the exact figure is pinned by the benchgate allocs/op gate).
	s.met.predictAllocs.Set(float64(heapAllocObjects()-allocStart) / float64(len(batch)))
	s.mirrorShadow(mirrored)
}

// heapAllocObjects reads the runtime's cumulative allocated-objects
// counter; the [1]Sample array stays on the stack, so sampling itself
// allocates nothing.
func heapAllocObjects() uint64 {
	s := [1]runtimemetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	runtimemetrics.Read(s[:])
	return s[0].Value.Uint64()
}

func (s *Server) answerAll(jobs []*job, res jobResult) {
	for _, j := range jobs {
		s.finishJob(j, res)
	}
}
