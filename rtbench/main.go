// Command rtbench is the repository's end-to-end benchmark. It deploys the
// paper's 2×1024 GRU (nn.PaperGRUSpec) pruned at Table II's 29× point,
// compiled for the mobile CPU target (fp32, exact tier), saved as a v5
// bundle and loaded through the registry the way serve loads it, then
// drives one workload:
//
//	stream   one live session, closed loop: waveform → MFCC → StepInto per
//	         frame → greedy decode (the paper's per-frame real-time path)
//	serve    open-loop arrivals through serve's HTTP handler in memory,
//	         continuous batching by sched (queueing and panel formation)
//	offline  Engine.InferBatch over a fixed utterance set, closed loop
//	         (panel groups sharded across the worker pool, no scheduler)
//
// Usage (from the repository root):
//
//	bash rtbench/run.sh --workload stream --seed 1 --seconds 26 --trace 0
//
// Every output is compared bit for bit with the oracle (oracle.go). The
// last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones, and also writes the
// run's spans and aggregates to a JSON file under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rtmobile/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runOpts are the command-line arguments.
type runOpts struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string
}

// runEnv is one run's state, shared by the workload runners.
type runEnv struct {
	cfg      config
	opt      runOpts
	in       *inputs
	dep      *deployment
	rec      *recorder
	untraced phase
	traced   phase
	layer    metricSet
	agg      map[string]float64
	requests json.RawMessage
	health   health
}

// seconds is the measured duration of the run.
func (env *runEnv) seconds() time.Duration {
	return time.Duration(env.opt.Seconds * float64(time.Second))
}

// health says whether the run measured what the workload defines. An
// invalid run is reported as incorrect, not as slow.
type health struct {
	Sent        int     `json:"sent"`
	Succeeded   int     `json:"succeeded"`
	Failed      int     `json:"failed"`
	Mismatched  int     `json:"mismatched"`
	GenLagP99Ms float64 `json:"gen_lag_ms_p99"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the workload: a noisy host shows here.
	StealShare float64  `json:"host_steal_share"`
	Problems   []string `json:"problems,omitempty"`
}

func (h *health) invalid(why string) { h.Problems = append(h.Problems, why) }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOpts
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "stream, serve or offline")
	fs.Uint64Var(&o.Seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.Seconds, "seconds", 26, "measured duration")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.OutDir, "out", filepath.Join(".bench_build", "rtbench"), "scratch and trace output directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "rtbench: --trace must be 0 or 1")
		return 2
	}
	if o.Seconds <= 0 {
		fmt.Fprintln(stderr, "rtbench: --seconds must be positive")
		return 2
	}
	o.Trace = trace == 1
	res, err := execute(paperConfig(), o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rtbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rtbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// execute runs one workload and returns its result; it prints the
// fingerprint and the harness health on stdout first.
func execute(cfg config, o runOpts, stdout, stderr io.Writer) (*result, error) {
	runners := map[string]func(*runEnv) error{"stream": runStream, "serve": runServe, "offline": runOffline}
	runWorkload, ok := runners[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want stream, serve or offline)", o.Workload)
	}
	pinRuntime(workers)
	obs.SetEnabled(true)
	planSeconds := o.Seconds
	if o.Trace { // a traced serve run sends its plan twice
		planSeconds /= 2
	}
	in, err := makeInputs(cfg, o.Workload, o.Seed, planSeconds)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.OutDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	env := &runEnv{cfg: cfg, opt: o, in: in, rec: newRecorder(o.Trace), layer: newMetricSet(perLayer)}
	if env.dep, err = deploy(cfg, dir, env.rec); err != nil {
		return nil, err
	}
	defer env.dep.close()
	fp := hostFingerprint(cfg, o.Workload, o.Seed)
	fp.Oracle, err = checkCanary(cfg, env.dep.model, env.dep.engine())
	if err != nil {
		env.health.invalid("canary: " + err.Error())
	}
	total0, steal0 := cpuTicks()
	if err := runWorkload(env); err != nil {
		return nil, err
	}
	total1, steal1 := cpuTicks()

	h := &env.health
	for _, p := range []*phase{&env.untraced, &env.traced} {
		h.Sent += p.ops
		h.Failed += p.failed
		h.Mismatched += p.mismatched
	}
	h.Succeeded = h.Sent - h.Failed
	h.StealShare = ratio(float64(steal1-steal0), float64(total1-total0))
	res := &result{
		Correct:   h.Mismatched == 0 && len(h.Problems) == 0,
		Attempted: h.Sent,
		Failed:    h.Failed,
	}
	if o.Trace {
		res.Metrics = env.layer
		env.setupLayers()
		res.Metrics.set("fail_share", ratio(float64(h.Failed), float64(h.Sent)))
		res.Metrics.set("host.mem_gbps", memBandwidthGBs())
		path := filepath.Join(o.OutDir, fmt.Sprintf("trace-%s-seed%d.json", o.Workload, o.Seed))
		err := writeTrace(path, traceFile{Fingerprint: fp, Metrics: res.Metrics,
			Layers: env.rec.summary(), Aggregates: env.agg, Requests: env.requests, Spans: env.rec.spans})
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(stderr, "rtbench: trace written to", path)
	} else {
		res.Metrics = newMetricSet(endToEnd)
		env.untraced.endToEnd(res.Metrics)
		res.Metrics.set("setup_s", median(env.dep.totalS))
		res.Metrics.set("peak_rss_mb", peakRSSMB())
	}
	line := func(k string, v any) {
		b, _ := json.Marshal(map[string]any{k: v})
		fmt.Fprintln(stdout, string(b))
	}
	line("fingerprint", fp)
	line("health", h)
	return res, nil
}

// setupLayers reports the set-up stages, medians over the repetitions.
func (env *runEnv) setupLayers() {
	d, m := env.dep, env.layer
	m.set("rtmobile.prune_ms", median(d.pruneS)*1e3)
	m.set("rtmobile.compile_ms", median(d.compileS)*1e3)
	m.set("rtmobile.bundle_save_ms", median(d.saveS)*1e3)
	m.set("registry.load_ms", median(d.loadS)*1e3)
	m.set("rtmobile.bundle_mb", float64(d.bundleBytes)/(1<<20))
}
