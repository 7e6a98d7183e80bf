package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// Span names, one per layer boundary the benchmark can wrap from outside.
const (
	spanTranslate = "core.translate"
	spanBeam      = "nl2sql.beam"
	spanPremise   = "explain.premise"
	spanVerify    = "nli.verify"
)

// span is one timed call across a layer boundary. Spans of one translate
// share Req; the translate span is the parent of the others. Req is -1
// where the seam does not know its request (the serve verifier).
type span struct {
	Req   int64  `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; the decorators pass straight
// through while it is off.
type tracer struct {
	on    atomic.Bool
	req   atomic.Int64
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// start clears the tracer and turns it on; req starts at -1.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans, t.epoch = nil, time.Now()
	t.mu.Unlock()
	t.req.Store(-1)
	t.on.Store(true)
}

// stop turns the tracer off and returns the spans it kept.
func (t *tracer) stop() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

func (t *tracer) record(req int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// tracedModel, tracedFeedback and tracedVerifier record a span around
// every call through core.Pipeline's Model, Feedback and Verifier seams.
type tracedModel struct {
	m nl2sql.Model
	t *tracer
}

func (d tracedModel) Name() string               { return d.m.Name() }
func (d tracedModel) BaseLatency() time.Duration { return d.m.BaseLatency() }

func (d tracedModel) Translate(benchmark string, ex datasets.Example, db *storage.Database, k int) []nl2sql.Candidate {
	if !d.t.on.Load() {
		return d.m.Translate(benchmark, ex, db, k)
	}
	start := time.Now()
	out := d.m.Translate(benchmark, ex, db, k)
	d.t.record(d.t.req.Load(), spanBeam, start, time.Now())
	return out
}

type tracedFeedback struct {
	fb core.Feedback
	t  *tracer
}

func (d tracedFeedback) Name() string { return d.fb.Name() }

func (d tracedFeedback) Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error) {
	if !d.t.on.Load() {
		return d.fb.Premise(ctx, db, stmt, result)
	}
	start := time.Now()
	p, err := d.fb.Premise(ctx, db, stmt, result)
	d.t.record(d.t.req.Load(), spanPremise, start, time.Now())
	return p, err
}

// tracedVerifier implements nli.ContextVerifier so a wrapped verifier
// with real waits (nli.Latency) stays cancellable.
type tracedVerifier struct {
	v nli.Verifier
	t *tracer
}

func (d tracedVerifier) Name() string { return d.v.Name() }

func (d tracedVerifier) Score(hypothesis string, premise nli.Premise) float64 {
	return d.v.Score(hypothesis, premise)
}

func (d tracedVerifier) Verify(hypothesis string, premise nli.Premise) bool {
	//vetcycle:allow ctxflow -- Verify has no context to thread; VerifyContext is the loop's path
	ok, _ := d.VerifyContext(context.Background(), hypothesis, premise)
	return ok
}

func (d tracedVerifier) VerifyContext(ctx context.Context, hypothesis string, premise nli.Premise) (bool, error) {
	if !d.t.on.Load() {
		return nli.VerifyContext(ctx, d.v, hypothesis, premise)
	}
	start := time.Now()
	ok, err := nli.VerifyContext(ctx, d.v, hypothesis, premise)
	d.t.record(d.t.req.Load(), spanVerify, start, time.Now())
	return ok, err
}

// passTrace is the outcome of the traced loop phase. took[i] is the wall
// time of results[i]; gaps are the client's idle time between one
// completion and the next call.
type passTrace struct {
	translates int
	elapsed    time.Duration
	results    []*core.Result
	took, gaps []time.Duration
	spans      []span
}

// tracedLoop runs whole passes over the dev set in a seeded order, at
// least minDur long, with p's three seams wrapped and a translate span
// around every call. Translates run one at a time, so the spans of one
// request never overlap. p's seams are restored afterwards.
func tracedLoop(ctx context.Context, e *env, p *core.Pipeline, seed int64, minDur time.Duration) (passTrace, error) {
	t := &tracer{}
	model, fb, v := p.Model, p.Feedback, p.Verifier
	p.Model, p.Feedback, p.Verifier = tracedModel{model, t}, tracedFeedback{fb, t}, tracedVerifier{v, t}
	defer func() { p.Model, p.Feedback, p.Verifier = model, fb, v }()

	order := newCycler(phaseRand(seed, "traced"), len(e.dev))
	var pt passTrace
	t.start()
	start := time.Now()
	prevEnd := start
	for pass := 0; pass == 0 || time.Since(start) < minDur; pass++ {
		for range e.dev {
			i := order.next()
			ex := e.dev[i]
			req := int64(pt.translates)
			t.req.Store(req)
			t0 := time.Now()
			res, err := p.Translate(ctx, ex, e.dbs[ex.DBName])
			end := time.Now()
			t.record(req, spanTranslate, t0, end)
			pt.took = append(pt.took, end.Sub(t0))
			pt.gaps = append(pt.gaps, t0.Sub(prevEnd))
			prevEnd = end
			if err != nil {
				t.stop()
				return pt, fmt.Errorf("traced translate %s: %w", ex.ID, err)
			}
			if got := outcomeOf(res); got != e.want[i] {
				t.stop()
				return pt, fmt.Errorf("traced translate %s: got %+v, want %+v", ex.ID, got, e.want[i])
			}
			pt.results = append(pt.results, res)
			pt.translates++
		}
	}
	pt.elapsed = time.Since(start)
	pt.spans = t.stop()
	return pt, nil
}

// spanStats summarises a traced loop phase per layer.
type spanStats struct {
	// selfUS is each translate's duration minus the part of it its child
	// spans cover; loopUS is each translate's duration minus its beam.
	selfUS, loopUS              []float64
	beamUS, premiseUS, verifyUS []float64
	translates                  int
	// reconcileErr is the largest |translate − (Σ children + self)| as a
	// share of the translate; non-zero only when children overlap.
	reconcileErr float64
}

func analyse(spans []span) spanStats {
	byReq := map[int64][]span{}
	var st spanStats
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
		switch s.Name {
		case spanBeam:
			st.beamUS = append(st.beamUS, us(s.dur()))
		case spanPremise:
			st.premiseUS = append(st.premiseUS, us(s.dur()))
		case spanVerify:
			st.verifyUS = append(st.verifyUS, us(s.dur()))
		}
	}
	for _, group := range byReq {
		var root *span
		var children []span
		for i := range group {
			if group[i].Name == spanTranslate {
				root = &group[i]
			} else {
				children = append(children, group[i])
			}
		}
		if root == nil {
			continue
		}
		st.translates++
		var sum, beam time.Duration
		for _, c := range children {
			sum += c.dur()
			if c.Name == spanBeam {
				beam += c.dur()
			}
		}
		self := root.dur() - covered(*root, children)
		if d := root.dur(); d > 0 {
			diff := (sum + self - d).Seconds() / d.Seconds()
			if diff < 0 {
				diff = -diff
			}
			if diff > st.reconcileErr {
				st.reconcileErr = diff
			}
		}
		st.selfUS = append(st.selfUS, us(self))
		st.loopUS = append(st.loopUS, us(root.dur()-beam))
	}
	return st
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		c.Start, c.End = max(c.Start, parent.Start), min(c.End, parent.End)
		if c.End > c.Start {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, end int64
	end = parent.Start
	for _, c := range iv {
		if c.Start > end {
			end = c.Start
		}
		if c.End > end {
			total += c.End - end
			end = c.End
		}
	}
	return time.Duration(total)
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
