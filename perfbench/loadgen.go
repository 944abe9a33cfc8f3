package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// sample is one request's outcome. Times are offsets from the phase
// start.
type sample struct {
	id   int           // request id in the body source
	due  time.Duration // when the request was due to be sent
	sent time.Duration
	done time.Duration
	// slept marks an open-loop arrival whose connection was idle and
	// waited for its due time; sent-due is then the generator's own
	// lateness. Otherwise sent-due is time spent queued in the client
	// behind busy connections.
	slept  bool
	status int // 0 = transport error
	format string
	rung   string
	cached bool
	spans  []obs.Span
	wrong  bool // set by the oracle: a 200 whose format is not the reference
}

// latency is the request's time from due to answered, so a stall is
// charged to every arrival queued behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// answer is the part of a predict response the benchmark reads.
type answer struct {
	Format string     `json:"format"`
	Rung   string     `json:"rung"`
	Cached bool       `json:"cached"`
	Trace  []obs.Span `json:"trace"`
}

// plan is one load phase against url.
type plan struct {
	url   string
	src   *bodySource
	conns int
	trace bool
	first int // first request id of the phase
	// Open loop: request first+i is due at dues[i].
	dues []time.Duration
	// Closed loop: send requests first, first+1, ... until count are
	// sent or the phase has run for dur (0 = no such limit).
	count int
	dur   time.Duration
}

// newClient returns a client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// drive runs one phase with conns workers, each owning one connection,
// and returns the samples in request order. In an open loop the workers
// take arrivals in due order; an arrival that finds every connection
// busy waits in the client and is timed from its due time, not from
// when a connection freed up. It also returns the phase's wall time:
// from its start to the last answer.
func drive(ctx context.Context, c *http.Client, p plan) ([]sample, time.Duration) {
	n := len(p.dues)
	if p.dues == nil {
		n = p.count
		if n == 0 || n > len(p.src.reqs)-p.first {
			n = len(p.src.reqs) - p.first
		}
	}
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range p.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &out[i]
				s.id = p.first + i
				if p.dues != nil {
					s.due = p.dues[i]
					if wait := s.due - time.Since(start); wait > 0 {
						s.slept = true
						time.Sleep(wait)
					}
				} else {
					s.due = time.Since(start)
					if p.dur > 0 && s.due >= p.dur {
						return
					}
				}
				send(ctx, c, p, s, start)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if p.dues == nil {
		// A closed loop's workers stop at dur in any order, so the
		// sent requests are not a prefix of out; keep only those.
		kept := out[:0]
		for _, s := range out {
			if s.done > 0 {
				kept = append(kept, s)
			}
		}
		out = kept
	}
	return out, elapsed
}

func send(ctx context.Context, c *http.Client, p plan, s *sample, start time.Time) {
	url := p.url + "/v1/predict"
	if p.trace {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, p.src.reader(s.id))
	if err != nil {
		s.done = time.Since(start)
		return
	}
	req.ContentLength = int64(p.src.size(s.id))
	req.Header.Set("Content-Type", "application/json")
	s.sent = time.Since(start)
	res, err := c.Do(req)
	if err != nil {
		s.done = time.Since(start)
		return
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	s.done = time.Since(start)
	if err != nil {
		return
	}
	s.status = res.StatusCode
	if s.status != http.StatusOK {
		return
	}
	var a answer
	if json.Unmarshal(body, &a) != nil {
		s.format = "<undecodable>"
		return
	}
	s.format, s.rung, s.cached, s.spans = a.Format, a.Rung, a.Cached, a.Trace
}
