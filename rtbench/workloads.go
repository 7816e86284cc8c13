package main

import (
	"time"

	"rtmobile/internal/compiler"
	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/speech"
	"rtmobile/internal/tensor"
)

// hopS is the audio one feature frame covers.
const hopS = 0.010

// phase is what one measured phase of a workload saw. An operation is one
// utterance in stream (waveform to decoded phones), one HTTP request in
// serve, and one InferBatch call in offline. A frame's latency runs from
// its features being handed to the program until its posterior comes
// back: one StepInto in stream, the whole operation in serve and offline.
//
// A pass is one sweep over the workload's inputs: a cycle of the stream
// utterances, one arrival plan of serve, one InferBatch. Latency
// percentiles are taken within each pass and reported as their median
// over passes, so an interference burst from outside the process that
// hits one pass does not move the run's figure.
type phase struct {
	ops, failed, mismatched int
	opMs                    []float64
	frameUs                 []float64
	passEnds                []passEnd
	busyS                   float64 // Σ operation wall time
	audioS                  float64 // audio the operations covered
	frames                  int     // frames scored correctly
	spanS                   float64 // wall time frames_per_s divides by
	// stream only: time inside Features (+CMVN) and GreedyDecode.
	mfccS, decodeS float64
}

// op records one whole operation of n frames that took d.
func (p *phase) op(d time.Duration, n int, ok bool) {
	p.ops++
	ms := float64(d) / 1e6
	p.opMs = append(p.opMs, ms)
	for i := 0; i < n; i++ {
		p.frameUs = append(p.frameUs, ms*1e3)
	}
	p.busyS += d.Seconds()
	p.audioS += float64(n) * hopS
	if ok {
		p.frames += n
	} else {
		p.failed++
	}
}

// passEnd records where a pass ended in the phase's running totals.
type passEnd struct {
	ops, frames   int
	busyS, audioS float64
}

// endPass closes a pass over the inputs.
func (p *phase) endPass() {
	p.passEnds = append(p.passEnds, passEnd{len(p.opMs), len(p.frameUs), p.busyS, p.audioS})
}

// opPct and framePct are the median over passes of the q-th percentile
// of operation and frame latency within each pass.
func (p *phase) opPct(q float64) float64 {
	return p.passMedian(func(from, to passEnd) float64 { return pct(p.opMs[from.ops:to.ops], q) })
}

func (p *phase) framePct(q float64) float64 {
	return p.passMedian(func(from, to passEnd) float64 { return pct(p.frameUs[from.frames:to.frames], q) })
}

// rtf is the median over passes of operation time over audio covered.
func (p *phase) rtf() float64 {
	return p.passMedian(func(from, to passEnd) float64 { return ratio(to.busyS-from.busyS, to.audioS-from.audioS) })
}

// passMedian is the median of f over the phase's passes.
func (p *phase) passMedian(f func(from, to passEnd) float64) float64 {
	var per []float64
	var from passEnd
	for _, to := range p.passEnds {
		per = append(per, f(from, to))
		from = to
	}
	return median(per)
}

func (p *phase) endToEnd(m metricSet) {
	m.set("ok_share", ratio(float64(p.ops-p.failed), float64(p.ops)))
	m.set("frame_p50_us", p.framePct(50))
	m.set("frame_p99_us", p.framePct(99))
	m.set("rtf", p.rtf())
	m.set("latency_p50_ms", p.opPct(50))
	m.set("latency_p90_ms", p.opPct(90))
	m.set("frames_per_s", ratio(float64(p.frames), p.spanS))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// overheadPct is the traced phase's p50 over the untraced one's, in %.
func overheadPct(traced, untraced float64) float64 {
	return ratio(traced-untraced, untraced) * 100
}

// runStream drives one live session in a closed loop: waveform →
// Extractor.Features (+CMVN) → StepInto per frame → GreedyDecode, with
// Reset between utterances. A traced run alternates utterances between a
// stream opened before the engine's tracer and one opened after it.
func runStream(env *runEnv) error {
	in, eng := env.in, env.dep.engine()
	want := oracle(env.dep.model, in.streamFrames)
	ext := speech.NewExtractor(in.feat)
	streams := []*rtmobile.Stream{eng.NewStream()}
	phases := []*phase{&env.untraced}
	var tr *obs.Tracer
	if env.opt.Trace {
		tr = eng.EnableTracing(traceRing)
		streams = append(streams, eng.NewStream())
		phases = append(phases, &env.traced)
	}
	maxT := 0
	for _, f := range in.streamFrames {
		maxT = max(maxT, len(f))
	}
	post := make([][]float32, maxT)
	for t := range post {
		post[t] = make([]float32, eng.OutputDim())
	}
	utterance := func(k, u int) {
		ph, s := phases[k], streams[k]
		root := int32(-1)
		if k == 1 {
			root = env.rec.begin("utterance", -1)
		}
		t0 := time.Now()
		frames := ext.Features(in.waves[u])
		in.cmvn.Apply(frames)
		t1 := env.rec.end("Features", root, t0)
		for t, f := range frames {
			ts := time.Now()
			s.StepInto(post[t], f)
			te := time.Now()
			ph.frameUs = append(ph.frameUs, us(te.Sub(ts)))
			if root >= 0 {
				env.rec.add("StepInto", root, ts, te, "")
			}
		}
		t2 := time.Now()
		speech.GreedyDecode(post[:len(frames)])
		t3 := env.rec.end("GreedyDecode", root, t2)
		s.Reset()
		env.rec.finish(root, t0, t3)

		ok := sameBits(post[:len(frames)], want[u])
		ph.ops++
		ph.opMs = append(ph.opMs, float64(t3.Sub(t0))/1e6)
		ph.busyS += t3.Sub(t0).Seconds()
		ph.spanS += t3.Sub(t0).Seconds()
		ph.audioS += float64(len(in.waves[u])) / speech.SampleRate
		ph.mfccS += t1.Sub(t0).Seconds()
		ph.decodeS += t3.Sub(t2).Seconds()
		if ok {
			ph.frames += len(frames)
		} else {
			ph.failed++
			ph.mismatched++
		}
		if ph.ops%len(in.waves) == 0 {
			ph.endPass()
		}
	}

	// Warm-up: one unmeasured utterance per stream.
	keep := len(env.rec.spans)
	for k := range streams {
		saved := *phases[k]
		utterance(k, 0)
		*phases[k] = saved
	}
	if tr != nil {
		tr.Reset()
	}
	env.rec.spans = env.rec.spans[:keep]
	before := snapObs()
	deadline := time.Now().Add(env.seconds())
	// Whole cycles only, so every utterance is measured equally often.
	cycle := len(streams) * len(in.waves)
	for i := 0; i%cycle != 0 || time.Now().Before(deadline); i++ {
		utterance(i%len(streams), (i/len(streams))%len(in.waves))
	}
	d := snapObs().delta(before)
	env.agg = d.aggregates()
	if !env.opt.Trace {
		return nil
	}

	m, up, tp := env.layer, &env.untraced, &env.traced
	m.set("speech.mfcc_us_per_frame", ratio(tp.mfccS*1e6, float64(len(tp.frameUs))))
	m.set("speech.decode_us", ratio(tp.decodeS*1e6, float64(tp.ops)))
	steps, _ := tr.KindTotal(obs.StageStep)
	var layerNs int64
	for _, ls := range eng.LayerStats() {
		m.set("nn.layer_us."+ls.Name, float64(ls.AvgNs())/1e3)
		layerNs += ls.TotalNs
	}
	_, epiNs := tr.KindTotal(obs.StageEpilogue)
	m.set("nn.matmul_us", ratio(float64(layerNs-epiNs)/1e3, float64(steps)))
	m.set("tensor.epilogue_us", ratio(float64(epiNs)/1e3, float64(steps)))

	plan := eng.Plan()
	planMACs := 0
	for i := range plan.Matrices {
		planMACs += plan.Matrices[i].MACs()
	}
	executed := 0
	for _, p := range env.dep.model.WeightMatrices() {
		executed += p.W.Rows * p.W.Cols
	}
	stepS := up.framePct(50) / 1e6
	m.set("rtmobile.plan_macs_per_step", float64(planMACs))
	m.set("rtmobile.executed_macs_per_step", float64(executed))
	m.set("rtmobile.effective_gmacs", ratio(float64(planMACs), stepS)/1e9)
	m.set("rtmobile.weight_gbps", ratio(float64(plan.WeightBytes()), stepS)/1e9)
	modelStep := eng.Latency().TotalUS / float64(plan.TimestepsPerFrame)
	m.set("device.model_step_us", modelStep)
	m.set("device.model_error_x", ratio(stepS*1e6, modelStep))
	allSteps := float64(len(up.frameUs) + len(tp.frameUs))
	m.set("parallel.tasks_per_step", ratio(float64(d.poolTasks), allSteps))
	stepNs := (sum(up.frameUs) + sum(tp.frameUs)) * 1e3
	m.set("parallel.busy_share", ratio(float64(d.poolBusyNs), stepNs*float64(eng.Pool().Workers())))
	m.set("obs.overhead_pct", overheadPct(tp.framePct(50), up.framePct(50)))
	packed, err := packedStepUs(env, in.streamFrames)
	if err != nil {
		return err
	}
	m.set("compiler.packed_step_us", packed)
	for k, v := range stageTotals(tr) {
		env.agg[k] = v
	}
	return nil
}

// packedStepUs is the median time of one timestep through the compiler's
// packed kernels at B=1: every matrix of the plan, compiled and packed
// from the same pruned weights, run once per frame.
func packedStepUs(env *runEnv, utts [][][]float32) (float64, error) {
	eng := env.dep.engine()
	opt := eng.Plan().Options
	type prog struct {
		pp   *compiler.PackedProgram
		s    *compiler.PackedScratch
		x, y []float32
	}
	rng := tensor.NewRNG(defaultSeed)
	var progs []prog
	for _, src := range rtmobile.ModelSources(env.dep.model, env.dep.scheme, opt.Format) {
		p, err := compiler.CompileProgram(src, opt, eng.Target().Threads())
		if err != nil {
			return 0, err
		}
		pp, err := compiler.Pack(p, opt.Tile.Unroll)
		if err != nil {
			return 0, err
		}
		x := make([]float32, pp.Cols)
		for i := range x {
			x[i] = rng.Float32()
		}
		progs = append(progs, prog{pp, pp.NewScratch(), x, make([]float32, pp.Rows)})
	}
	var steps []float64
	for _, u := range utts {
		for _, f := range u {
			t0 := time.Now()
			for _, p := range progs {
				x := p.x
				if len(f) == len(x) {
					x = f
				}
				if err := p.pp.Run(p.y, x, p.s); err != nil {
					return 0, err
				}
			}
			steps = append(steps, us(time.Since(t0)))
		}
	}
	return median(steps), nil
}

// stageTotals flattens a stage tracer's per-kind aggregates.
func stageTotals(tr *obs.Tracer) map[string]float64 {
	out := map[string]float64{}
	for k := obs.StageKind(0); k < obs.NumStageKinds; k++ {
		if n, ns := tr.KindTotal(k); n > 0 {
			out["tracer."+k.String()+".count"] = float64(n)
			out["tracer."+k.String()+".ms"] = float64(ns) / 1e6
		}
	}
	return out
}

// runOffline scores a fixed utterance set per operation with
// Engine.InferBatch, in a closed loop. A traced run alternates operations
// between the serving engine and a second, traced load of the same
// bundle (InferBatch reuses per-engine panel arenas, which keep the
// tracer they were opened with).
func runOffline(env *runEnv) error {
	in, eng := env.in, env.dep.engine()
	want := oracle(env.dep.model, in.batch)
	engines := []*rtmobile.Engine{eng}
	phases := []*phase{&env.untraced}
	var tr *obs.Tracer
	if env.opt.Trace {
		inst, err := registry.BundleLoader(deployConfig().Target)(env.dep.bundle)
		if err != nil {
			return err
		}
		defer inst.Close()
		tr = inst.Engine.EnableTracing(traceRing)
		engines = append(engines, inst.Engine)
		phases = append(phases, &env.traced)
	}
	frames := 0
	for _, u := range in.batch {
		frames += len(u)
	}
	batch := func(k int) {
		ph := phases[k]
		t0 := time.Now()
		out := engines[k].InferBatch(in.batch)
		t1 := time.Now()
		if k == 1 {
			env.rec.add("InferBatch", -1, t0, t1, "")
		}
		ok := true
		for i := range want {
			ok = ok && sameBits(out[i], want[i])
		}
		ph.op(t1.Sub(t0), frames, ok)
		ph.endPass()
		ph.spanS += t1.Sub(t0).Seconds()
		if !ok {
			ph.mismatched++
		}
	}

	keep := len(env.rec.spans)
	for k := range engines { // warm-up: fills each engine's arena free list
		saved := *phases[k]
		batch(k)
		*phases[k] = saved
	}
	if tr != nil {
		tr.Reset()
	}
	env.rec.spans = env.rec.spans[:keep]
	before := snapObs()
	deadline := time.Now().Add(env.seconds())
	for i := 0; i%len(engines) != 0 || time.Now().Before(deadline); i++ {
		batch(i % len(engines))
	}
	d := snapObs().delta(before)
	env.agg = d.aggregates()
	if !env.opt.Trace {
		return nil
	}

	m, up, tp := env.layer, &env.untraced, &env.traced
	steps, stepNs := tr.KindTotal(obs.StageBatchStep)
	lanes := float64(tp.ops * frames)
	m.set("rtmobile.panel_width", ratio(lanes, float64(steps)))
	m.set("rtmobile.lane_step_us", ratio(float64(stepNs)/1e3, lanes))
	m.set("parallel.busy_share", ratio(float64(d.poolBusyNs), (up.busyS+tp.busyS)*1e9*float64(eng.Pool().Workers())))
	m.set("obs.overhead_pct", overheadPct(tp.opPct(50), up.opPct(50)))

	// The bar InferBatch should clear: serial Infer over the same set.
	serialS := 0.0
	for i, f := range in.batch {
		t0 := time.Now()
		post := eng.Infer(f)
		t1 := time.Now()
		env.rec.add("Infer", -1, t0, t1, "")
		serialS += t1.Sub(t0).Seconds()
		tp.ops++
		if !sameBits(post, want[i]) {
			tp.failed++
			tp.mismatched++
		}
	}
	m.set("rtmobile.serial_frames_per_s", ratio(float64(frames), serialS))
	for k, v := range stageTotals(tr) {
		env.agg[k] = v
	}
	return nil
}
