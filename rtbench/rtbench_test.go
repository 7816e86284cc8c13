package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"rtmobile/internal/nn"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/serve"
)

// smallConfig shrinks the benchmark so a run takes about a second: a
// narrow GRU, short ladders, one set-up repetition, no stored digest.
func smallConfig() config {
	c := paperConfig()
	c.Spec = nn.ModelSpec{InputDim: 39, Hidden: 32, NumLayers: 2, OutputDim: 39, Seed: 1}
	c.ServeRPS = 20
	c.StreamSeconds = []float64{0.3, 0.4}
	c.ServeFrames = []int{8, 12}
	c.OfflineFrames = []int{8, 12, 16}
	c.SetupReps = 1
	c.CanaryDigest = ""
	return c
}

func TestInputsAreSeeded(t *testing.T) {
	cfg := paperConfig()
	for _, wl := range []string{"stream", "serve", "offline"} {
		gen := func(seed uint64) *inputs {
			in, err := makeInputs(cfg, wl, seed, 4)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a, b, c := gen(3), gen(3), gen(4)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: one seed gave two different input sets", wl)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", wl)
		}
		// The serve arrival schedule is fixed by design; only content moves.
		if !reflect.DeepEqual(a.arrivals, c.arrivals) {
			t.Errorf("%s: arrival schedule depends on the seed", wl)
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(what string, got []struct{ Name, Unit string }, table []struct{ name, unit string }) {
		if len(got) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(table))
		}
		for i, e := range table {
			if got[i].Name != e.name || got[i].Unit != e.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, e.name, e.unit)
			}
			if !valid.MatchString(e.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", e.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"stream", "serve", "offline"}) {
		t.Errorf("workloads %v", names)
	}
}

// TestSmokeRuns runs every workload, untraced and traced, at reduced size:
// outputs match the oracle, every metric of the run's table is reported,
// and no end-to-end metric reads 0.
func TestSmokeRuns(t *testing.T) {
	for _, wl := range []string{"stream", "serve", "offline"} {
		for _, trace := range []bool{false, true} {
			res, err := execute(smallConfig(), runOpts{Workload: wl, Seed: 2, Seconds: 1, Trace: trace, OutDir: t.TempDir()},
				io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(table))
			}
			for _, e := range table {
				m, ok := res.Metrics[e.name]
				if !ok || m.Unit != e.unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", wl, trace, e.name, e.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v", wl, e.name, m.Value)
				}
			}
			if trace && !(res.Metrics["obs.overhead_pct"].Value != 0) {
				t.Errorf("%s: traced run reported no tracing overhead", wl)
			}
		}
	}
}

// TestOneBitCorruptionFails flips one bit of one serve response and of one
// posterior: each must be reported as a failed operation.
func TestOneBitCorruptionFails(t *testing.T) {
	cfg := smallConfig()
	in, err := makeInputs(cfg, "serve", 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deploy(cfg, t.TempDir(), newRecorder(false))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.close()
	want := oracle(dep.model, in.chunks)
	r := drive(serve.New(serve.Config{Registry: dep.reg}).Mux(), in)
	var clean phase
	r.score(in, want, &clean)
	if clean.failed != 0 || clean.ops != len(in.arrivals) {
		t.Fatalf("clean run: %d of %d failed", clean.failed, clean.ops)
	}

	var post [][]float32
	if err := json.Unmarshal(r.body[0], &post); err != nil {
		t.Fatal(err)
	}
	post[0][0] = math.Float32frombits(math.Float32bits(post[0][0]) ^ 1)
	if r.body[0], err = json.Marshal(post); err != nil {
		t.Fatal(err)
	}
	var bad phase
	r.score(in, want, &bad)
	if bad.failed != 1 || bad.mismatched != 1 {
		t.Errorf("one corrupted response: failed=%d mismatched=%d, want 1 and 1", bad.failed, bad.mismatched)
	}
	if sameBits(post, want[in.arrivals[0].Chunk]) {
		t.Error("sameBits missed a one-bit difference")
	}
}

// TestStoredOracleDigest pins the oracle: the default-seed canary through
// nn.Forward on the paper model must hash to the stored digest.
func TestStoredOracleDigest(t *testing.T) {
	cfg := paperConfig()
	model := nn.NewGRUModel(cfg.Spec)
	rtmobile.Prune(model, nil, pruneConfig())
	frames, err := canaryFrames()
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(oracle(model, [][][]float32{frames})[0]); got != cfg.CanaryDigest {
		t.Errorf("oracle digest %s, stored %s", got, cfg.CanaryDigest)
	}
}

func TestBacklogGrowing(t *testing.T) {
	for _, c := range []struct {
		q    []int64
		want bool
	}{
		{[]int64{0, 1, 0, 2, 1, 0, 1, 0}, false},
		{[]int64{0, 1, 0, 1, 1, 0, 5, 8}, true},
		{[]int64{3, 4, 3, 4, 3, 4, 3, 4}, false},
	} {
		if got := backlogGrowing(c.q); got != c.want {
			t.Errorf("backlogGrowing(%v) = %v", c.q, got)
		}
	}
}
