package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rtmobile/internal/speech"
	"rtmobile/internal/tensor"
)

// inputs is everything a run feeds the program. Sizes come from the
// config's fixed ladders and the serve arrival schedule is fixed (see
// servePlan); the seed picks the speakers, sentences and crops.
type inputs struct {
	feat speech.FeatureConfig
	cmvn speech.NormalizeStats
	// stream: synthesized waveforms, and their features (the oracle input).
	waves        [][]float64
	streamFrames [][][]float32
	// serve: request chunks, their JSON bodies, and the arrival plan.
	chunks   [][][]float32
	bodies   [][]byte
	arrivals []arrival
	// offline: the utterance set every InferBatch operation scores.
	batch [][][]float32
}

// trafficSeed fixes the serve workload's arrival order (see servePlan).
const trafficSeed = 9

// arrival is one planned request: when it is due, relative to the start
// of the run, and which chunk it sends.
type arrival struct {
	At    time.Duration
	Chunk int
}

// makeCorpus synthesizes the seed's corpus: feature utterances with CMVN
// applied, long enough to crop every ladder length from.
func makeCorpus(seed uint64) (*speech.Corpus, error) {
	cc := speech.DefaultCorpusConfig()
	cc.Seed = seed
	cc.NumSpeakers = 4
	cc.SentencesPerSpeaker = 3
	cc.PhonesPerSentence = 24
	return speech.GenerateCorpus(cc)
}

// makeInputs derives the inputs of one workload from the seed. seconds is
// the measured duration; it sizes the serve arrival plan.
func makeInputs(cfg config, workload string, seed uint64, seconds float64) (*inputs, error) {
	corpus, err := makeCorpus(seed)
	if err != nil {
		return nil, err
	}
	utts := append(append([]speech.Utterance{}, corpus.Train...), corpus.Test...)
	in := &inputs{feat: corpus.Config.Features, cmvn: corpus.CMVN}
	root := tensor.NewRNG(seed)
	switch workload {
	case "stream":
		return in, in.makeStream(cfg, root.Split())
	case "serve":
		if in.chunks, err = crops(utts, cfg.ServeFrames, root.Split()); err != nil {
			return nil, err
		}
		for _, c := range in.chunks {
			b, err := json.Marshal(c)
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, b)
		}
		in.arrivals = servePlan(cfg, seconds)
		return in, nil
	case "offline":
		in.batch, err = crops(utts, cfg.OfflineFrames, root.Split())
		return in, err
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// makeStream synthesizes one utterance per ladder duration, each from its
// own speaker, cropped to the exact duration.
func (in *inputs) makeStream(cfg config, rng *tensor.RNG) error {
	ext := speech.NewExtractor(in.feat)
	for i, secs := range cfg.StreamSeconds {
		n := int(secs * speech.SampleRate)
		spk := speech.NewSpeaker(rng, 1000+i)
		var wave []float64
		for len(wave) < n {
			w, _ := speech.SynthUtterance(speech.SampleSentence(rng, 30), spk, rng)
			wave = append(wave, w...)
		}
		wave = wave[:n]
		frames := ext.Features(wave)
		in.cmvn.Apply(frames)
		in.waves = append(in.waves, wave)
		in.streamFrames = append(in.streamFrames, frames)
	}
	return nil
}

// crops cuts one window per ladder length out of the corpus: a random
// utterance long enough, at a random offset. The windows are copies.
func crops(utts []speech.Utterance, lengths []int, rng *tensor.RNG) ([][][]float32, error) {
	out := make([][][]float32, len(lengths))
	for i, n := range lengths {
		var fit []int
		for j, u := range utts {
			if len(u.Frames) >= n {
				fit = append(fit, j)
			}
		}
		if len(fit) == 0 {
			return nil, fmt.Errorf("no corpus utterance has %d frames", n)
		}
		u := utts[fit[rng.Intn(len(fit))]].Frames
		off := rng.Intn(len(u) - n + 1)
		out[i] = make([][]float32, n)
		for t := range out[i] {
			out[i][t] = append([]float32(nil), u[off+t]...)
		}
	}
	return out, nil
}

// servePlan is the open-loop arrival schedule: back-to-back passes, each
// sending every chunk once in the same order, with gaps that are the
// exponential distribution's quantiles at evenly spaced probabilities for
// cfg.ServeRPS. Both orders come from a fixed traffic seed, not the run
// seed: with Poisson-shaped arrivals the queueing a run sees depends on
// them, and a per-seed order moved p90 latency by 10-40% between seeds.
// The run seed draws the content of every request instead. The plan has
// as many whole passes as fit in seconds, and at least one.
func servePlan(cfg config, seconds float64) []arrival {
	rng := tensor.NewRNG(trafficSeed)
	n := len(cfg.ServeFrames)
	gaps := make([]float64, n)
	period := 0.0
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) / cfg.ServeRPS
		period += gaps[i]
	}
	gapOrder, chunkOrder := rng.Perm(n), rng.Perm(n)
	var plan []arrival
	for pass := 0; pass == 0 || float64(pass+1)*period <= seconds; pass++ {
		at := float64(pass) * period
		for i := 0; i < n; i++ {
			plan = append(plan, arrival{At: time.Duration(at * 1e9), Chunk: chunkOrder[i]})
			at += gaps[gapOrder[i]]
		}
	}
	return plan
}

// fingerprint hashes the inputs byte for byte (tests compare it across
// seeds).
func (in *inputs) fingerprint() string {
	h := sha256.New()
	var b [8]byte
	for _, w := range in.waves {
		for _, v := range w {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, set := range [][][][]float32{in.streamFrames, in.chunks, in.batch} {
		for _, u := range set {
			hashRows(h, u)
		}
	}
	for _, a := range in.arrivals {
		binary.LittleEndian.PutUint64(b[:], uint64(a.At))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(a.Chunk))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
