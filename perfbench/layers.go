package main

import (
	"context"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// stages is one traced request split into the replica's span self
// times, in microseconds. A span is nested batch ⊃ rung:* ⊃ forward,
// so a parent's self time is its duration minus its child's. Absent
// spans count as 0: a cache hit has no queue, batch or forward.
type stages struct {
	parse, cache, queue, batchSelf, rungSelf, forward float64
	// envelope is the replica's traced interval: first span start to
	// last span end.
	envelope float64
}

func splitSpans(spans []obs.Span) stages {
	var s stages
	var batch, rung float64
	var first, last int64
	for i, sp := range spans {
		d := float64(sp.DurationMicros)
		switch {
		case sp.Name == "parse":
			s.parse += d
		case sp.Name == "cache":
			s.cache += d
		case sp.Name == "queue":
			s.queue += d
		case sp.Name == "batch":
			batch += d
		case strings.HasPrefix(sp.Name, "rung:"):
			rung += d
		case sp.Name == "forward":
			s.forward += d
		}
		end := sp.StartMicros + sp.DurationMicros
		if i == 0 || sp.StartMicros < first {
			first = sp.StartMicros
		}
		if i == 0 || end > last {
			last = end
		}
	}
	if rung > 0 {
		s.rungSelf = rung - s.forward
	}
	if batch > 0 {
		s.batchSelf = batch - rung
	}
	s.envelope = float64(last - first)
	return s
}

// layerTimes times the layers' public functions in this process on the
// bodies of the given requests, one call at a time, and returns the
// median per call in microseconds (allocations per decode for
// "serve.decode_allocs"). It stops after limit requests or once budget
// has been spent, whichever comes first, but times at least a few.
func layerTimes(src *bodySource, ids []int, sel *selector.Selector, limit int, budget time.Duration) map[string]float64 {
	ctx := context.Background()
	lim := sparse.DefaultLimits()
	const ct = "application/json"
	us := func(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e3 }
	var decode, cluster, fingerprint, normalize, predict []float64
	var bodies [][]byte
	began := time.Now()
	for _, id := range ids {
		if len(bodies) >= limit || (len(bodies) >= 5 && time.Since(began) > budget) {
			break
		}
		body := src.body(id)
		bodies = append(bodies, body)

		t := time.Now()
		m, _, err := serve.DecodeMatrixMeta(ctx, body, ct, lim)
		decode = append(decode, us(t))
		if err != nil {
			continue // the oracle reports undecodable bodies
		}
		t = time.Now()
		if m2, err := serve.DecodeMatrix(ctx, body, ct, lim); err == nil {
			sparse.Fingerprint(m2)
		}
		cluster = append(cluster, us(t))
		t = time.Now()
		sparse.Fingerprint(m)
		fingerprint = append(fingerprint, us(t))
		t = time.Now()
		represent.Normalize(m, sel.Cfg.Represent)
		normalize = append(normalize, us(t))
		t = time.Now()
		sel.Predict(m)
		predict = append(predict, us(t))
	}
	// Allocations are counted in a separate pass so that reading the
	// memory statistics never lands inside a timed call.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies {
		serve.DecodeMatrixMeta(ctx, body, ct, lim)
	}
	runtime.ReadMemStats(&after)
	return map[string]float64{
		"serve.decode_us":        median(decode),
		"serve.decode_allocs":    float64(after.Mallocs-before.Mallocs) / float64(max(len(bodies), 1)),
		"cluster.decode_us":      median(cluster),
		"sparse.fingerprint_us":  median(fingerprint),
		"represent.normalize_us": median(normalize),
		"selector.predict_us":    median(predict),
	}
}
