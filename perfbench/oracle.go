package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dtree"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// reference is what a correct replica answers for one body.
type reference struct {
	fp         uint64
	nnz        int
	cnn, dtree string
	err        error
}

// oracle computes references in this process from the same model file
// the replicas serve: selector.Predict for the cnn rung, the built-in
// heuristic tree for the dtree rung (replicas run without -dtree), and
// CSR for the csr floor.
type oracle struct {
	sel  *selector.Selector
	dt   *dtree.Selector
	refs map[int]reference // by body key
}

// prepare computes the references of every body among ids not yet
// known, on every CPU.
func (o *oracle) prepare(src *bodySource, ids []int) {
	var todo []int
	seen := map[int]bool{}
	for _, id := range ids {
		k := src.key(id)
		if _, ok := o.refs[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, id)
		}
	}
	out := make([]reference, len(todo))
	var wg sync.WaitGroup
	var next atomic.Int64
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(todo); j = int(next.Add(1) - 1) {
				out[j] = o.compute(src.body(todo[j]))
			}
		}()
	}
	wg.Wait()
	for j, id := range todo {
		o.refs[src.key(id)] = out[j]
	}
}

func (o *oracle) compute(body []byte) reference {
	m, err := serve.DecodeMatrix(context.Background(), body, "application/json", sparse.DefaultLimits())
	if err != nil {
		return reference{err: err}
	}
	r := reference{fp: sparse.Fingerprint(m), nnz: m.NNZ()}
	if f, _, err := o.sel.Predict(m); err == nil {
		r.cnn = f.String()
	} else {
		r.err = fmt.Errorf("reference predict: %w", err)
	}
	if f, err := o.dt.Predict(m); err == nil {
		r.dtree = f.String()
	}
	return r
}

// expect returns the format a replica answering on rung must give.
func (r reference) expect(rung string) string {
	switch rung {
	case "cnn":
		return r.cnn
	case "dtree":
		return r.dtree
	case "csr":
		return "csr"
	}
	return ""
}

// judge checks every measured answer of p against the oracle.
func (o *oracle) judge(src *bodySource, p *phase) {
	o.prepare(src, append(p.measuredIDs(), p.warmIDs...))
	p.attempted = len(p.samples)
	for i := range p.samples {
		s := &p.samples[i]
		switch {
		case s.status == 0:
			p.transport++
			continue
		case s.status != 200:
			p.non200++
			continue
		}
		ref := o.refs[src.key(s.id)]
		if want := ref.expect(s.rung); ref.err != nil || want == "" || s.format != want {
			s.wrong = true
			p.wrong++
			if p.wrong <= 3 {
				p.problems = append(p.problems, fmt.Sprintf("%s phase: request %d answered %q on rung %q, reference %q (%v)",
					p.name(), s.id, s.format, s.rung, want, ref.err))
			}
			continue
		}
		p.correct++
	}
	if p.wrong > 3 {
		p.problems = append(p.problems, fmt.Sprintf("%s phase: %d wrong answers in all", p.name(), p.wrong))
	}
}

// checkWorkload runs the self-checks that make a run valid rather than
// merely slow.
func checkWorkload(src *bodySource, phases []*phase, o *oracle) []string {
	var bad []string
	for _, p := range phases {
		if p.correct == 0 {
			bad = append(bad, fmt.Sprintf("%s phase: no correct answers out of %d requests", p.name(), p.attempted))
		}
		if late := p.lateP99(); late > ms(maxLateP99) {
			bad = append(bad, fmt.Sprintf("%s phase: generator lateness p99 %.3f ms exceeds %v", p.name(), late, maxLateP99))
		}
		hits := delta(p.before, p.after, "serve_cache_hits_total", p.reps...)
		misses := delta(p.before, p.after, "serve_cache_misses_total", p.reps...)
		if !src.splice {
			cached := 0
			for _, s := range p.samples {
				if s.cached {
					cached++
				}
			}
			if r := ratio(hits, hits+misses); r < minHitRatio {
				bad = append(bad, fmt.Sprintf("%s phase: cache hit ratio %.4f after warm-up, want >= %v", p.name(), r, minHitRatio))
			}
			if r := ratio(float64(cached), float64(len(p.samples))); r < minHitRatio {
				bad = append(bad, fmt.Sprintf("%s phase: %.4f of answers cached, want >= %v", p.name(), r, minHitRatio))
			}
			continue
		}
		if hits != 0 {
			bad = append(bad, fmt.Sprintf("%s phase: %v cache hits on distinct patterns", p.name(), hits))
		}
	}
	if !src.splice {
		return bad
	}
	// Every spliced body is a new pattern with exactly one more nonzero
	// than its base, warm-up included.
	fps := map[uint64]int{}
	for _, p := range phases {
		for _, id := range append(p.measuredIDs(), p.warmIDs...) {
			ref := o.refs[src.key(id)]
			if ref.err != nil {
				bad = append(bad, fmt.Sprintf("request %d: %v", id, ref.err))
				continue
			}
			if want := src.bases[src.reqs[id].base].nnz + 1; ref.nnz != want {
				bad = append(bad, fmt.Sprintf("request %d decodes with %d nonzeros, want %d", id, ref.nnz, want))
			}
			if other, dup := fps[ref.fp]; dup && other != id {
				bad = append(bad, fmt.Sprintf("requests %d and %d share fingerprint %x", other, id, ref.fp))
			}
			fps[ref.fp] = id
		}
	}
	if len(bad) > 10 {
		bad = append(bad[:10], fmt.Sprintf("... and %d more", len(bad)-10))
	}
	return bad
}
