package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/serve"
)

// serveRun is what one open-loop pass over the arrival plan observed,
// indexed like the plan.
type serveRun struct {
	due, start, end []time.Time
	code            []int
	body            [][]byte
	traceparent     []string
	lag             []time.Duration // how late the generator sent each request
	queue           []int64         // scheduler queue depth at each send
	wall            time.Duration   // first due time to last response
}

// drive replays the plan open loop against the handler in memory: each
// request is sent at its due time on its own goroutine, whatever the
// state of earlier ones.
func drive(h http.Handler, in *inputs) *serveRun {
	n := len(in.arrivals)
	r := &serveRun{
		due: make([]time.Time, n), start: make([]time.Time, n), end: make([]time.Time, n),
		code: make([]int, n), body: make([][]byte, n), traceparent: make([]string, n),
		lag: make([]time.Duration, n), queue: make([]int64, n),
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, a := range in.arrivals {
		due := t0.Add(a.At)
		time.Sleep(time.Until(due))
		r.due[i], r.lag[i] = due, time.Since(due)
		if m := obs.M(); m != nil {
			r.queue[i] = m.SchedQueue.Value()
		}
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body))
			w := httptest.NewRecorder()
			r.start[i] = time.Now()
			h.ServeHTTP(w, req)
			r.end[i] = time.Now()
			r.code[i], r.body[i] = w.Code, w.Body.Bytes()
			r.traceparent[i] = w.Header().Get(serve.TraceparentHeader)
		}(i, in.bodies[a.Chunk])
	}
	wg.Wait()
	for _, e := range r.end {
		r.wall = max(r.wall, e.Sub(t0))
	}
	return r
}

// score checks every response against the oracle and records the phase.
// A request that failed counts at the run's whole duration, so refusals
// cannot make latency look better.
func (r *serveRun) score(in *inputs, want [][][]float32, ph *phase) {
	for i, a := range in.arrivals {
		ok := r.code[i] == http.StatusOK && sameJSON(r.body[i], want[a.Chunk])
		if r.code[i] == http.StatusOK && !ok {
			ph.mismatched++
		}
		lat := r.end[i].Sub(r.due[i])
		if !ok {
			lat = r.wall
		}
		ph.op(lat, len(in.chunks[a.Chunk]), ok)
		if (i+1)%len(in.chunks) == 0 {
			ph.endPass()
		}
	}
	ph.spanS += r.wall.Seconds()
}

// backlogGrowing reports a queue that did not settle: the mean depth over
// the last quarter of the sends is more than twice that of the rest, plus
// two requests.
func backlogGrowing(q []int64) bool {
	k := len(q) * 3 / 4
	if k == 0 || k == len(q) {
		return false
	}
	mean := func(xs []int64) float64 {
		t := 0.0
		for _, x := range xs {
			t += float64(x)
		}
		return t / float64(len(xs))
	}
	return mean(q[k:]) > 2*mean(q[:k])+2
}

// runServe sends the arrival plan through serve.New(...).Mux() with the
// serve CLI's scheduler defaults. A traced run sends the same plan twice:
// once to the set-up registry, then to a second registry whose engine
// traces stages and whose tail keeps every request's trace.
func runServe(env *runEnv) error {
	in := env.in
	want := oracle(env.dep.model, in.chunks)
	var lags []float64
	pass := func(reg *registry.Registry, tail *obs.TraceTail, tr *obs.Tracer, ph *phase) (*serveRun, obsSnap) {
		// Warm-up on a throwaway server: maps the weights and fills the
		// engine's arena free list without touching the measured tail.
		warm := serve.New(serve.Config{Registry: reg}).Mux()
		warm.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(in.bodies[0])))
		if tr != nil {
			tr.Reset()
		}
		before := snapObs()
		r := drive(serve.New(serve.Config{Registry: reg, Tail: tail}).Mux(), in)
		d := snapObs().delta(before)
		r.score(in, want, ph)
		for _, l := range r.lag {
			lags = append(lags, float64(l)/1e6)
		}
		if backlogGrowing(r.queue) {
			env.health.invalid("scheduler backlog grew at the end of the run")
		}
		return r, d
	}

	_, d := pass(env.dep.reg, nil, nil, &env.untraced)
	env.agg = d.aggregates()
	if env.opt.Trace {
		if err := env.serveTraced(pass); err != nil {
			return err
		}
	}
	env.health.GenLagP99Ms = pct(lags, 99)
	if lag := time.Duration(env.health.GenLagP99Ms * 1e6); lag > maxGenLag {
		env.health.invalid("load generator ran " + lag.String() + " late at p99")
	}
	if env.opt.Trace {
		env.layer.set("serve.gen_lag_ms.p99", env.health.GenLagP99Ms)
	}
	return nil
}

// serveTraced is the traced pass and its per-layer breakdown.
func (env *runEnv) serveTraced(pass func(*registry.Registry, *obs.TraceTail, *obs.Tracer, *phase) (*serveRun, obsSnap)) error {
	in := env.in
	reg, tr, err := tracedRegistry(env.dep)
	if err != nil {
		return err
	}
	defer reg.Close(context.Background())
	tail := obs.NewTraceTail(len(in.arrivals)+1, len(in.arrivals)+1)

	r, d := pass(reg, tail, tr, &env.traced)
	env.agg = d.aggregates()
	for i := range r.due {
		root := env.rec.add("request", -1, r.due[i], r.end[i], r.traceparent[i])
		env.rec.add("ServeHTTP", root, r.start[i], r.end[i], "")
	}

	var parse, ser, wait, width []float64
	for _, t := range tail.Snapshot() {
		for _, s := range t.Spans() {
			switch s.Kind {
			case obs.ReqSpanParse:
				parse = append(parse, float64(s.Dur)/1e3)
			case obs.ReqSpanSerialize:
				ser = append(ser, float64(s.Dur)/1e3)
			case obs.ReqSpanQueueWait:
				wait = append(wait, float64(s.Dur)/1e6)
			case obs.ReqSpanBatchForm:
				width = append(width, float64(s.Width))
			}
		}
	}
	var stepMs []float64
	for _, s := range tr.Spans() {
		if s.Kind == obs.StageBatchStep {
			stepMs = append(stepMs, float64(s.Dur)/1e6)
		}
	}
	_, stepNs := tr.KindTotal(obs.StageBatchStep)
	m, up, tp := env.layer, &env.untraced, &env.traced
	m.set("serve.parse_us", median(parse))
	m.set("serve.serialize_us", median(ser))
	m.set("sched.queue_wait_ms.p50", pct(wait, 50))
	m.set("sched.queue_wait_ms.p90", pct(wait, 90))
	m.set("sched.open_width", ratio(sum(width), float64(len(width))))
	m.set("sched.panel_width", ratio(float64(d.occupancySum), float64(d.occupancyCount)))
	m.set("sched.dispatches", float64(d.dispatch))
	m.set("sched.joins", float64(d.joins))
	m.set("sched.rejected", float64(d.rejected))
	m.set("rtmobile.batch_step_ms.p50", median(stepMs))
	m.set("rtmobile.arena_hit_share", ratio(float64(d.arenaHits), float64(d.arenaHits+d.arenaMisses)))
	m.set("rtmobile.lane_step_us", ratio(float64(stepNs)/1e3, float64(tp.frames)))
	m.set("obs.overhead_pct", overheadPct(tp.opPct(50), up.opPct(50)))
	for k, v := range stageTotals(tr) {
		env.agg[k] = v
	}
	var buf bytes.Buffer
	if err := tail.WriteJSON(&buf); err != nil {
		return err
	}
	env.requests = json.RawMessage(buf.Bytes())
	return nil
}
