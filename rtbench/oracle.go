package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"rtmobile/internal/nn"
	"rtmobile/internal/rtmobile"
)

// The oracle is the training-side forward pass of the same pruned model:
// nn.Posteriors(model.Forward(frames)). On the exact tier every serving
// path must reproduce it bit for bit. A kernel that Forward and the
// steppers share could shift both sides at once, so the oracle itself is
// pinned by the stored digest of a default-seed canary.

// oracle computes the reference posteriors of each utterance.
func oracle(model *nn.Model, utts [][][]float32) [][][]float32 {
	out := make([][][]float32, len(utts))
	for i, u := range utts {
		out[i] = nn.Posteriors(model.Forward(u))
	}
	return out
}

// hashRows feeds float32 rows into h as little-endian bit patterns.
func hashRows(h hash.Hash, rows [][]float32) {
	var b [4]byte
	for _, r := range rows {
		for _, v := range r {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
}

// digest is the hex SHA-256 of rows' bit patterns.
func digest(rows [][]float32) string {
	h := sha256.New()
	hashRows(h, rows)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sameBits reports whether two posterior matrices are bit-identical.
func sameBits(got, want [][]float32) bool {
	if len(got) != len(want) {
		return false
	}
	for t := range want {
		if len(got[t]) != len(want[t]) {
			return false
		}
		for j, v := range want[t] {
			if math.Float32bits(got[t][j]) != math.Float32bits(v) {
				return false
			}
		}
	}
	return true
}

// sameJSON decodes a serve response body and compares it with the oracle.
func sameJSON(body []byte, want [][]float32) bool {
	var got [][]float32
	if err := json.Unmarshal(body, &got); err != nil {
		return false
	}
	return sameBits(got, want)
}

// canaryFrames is the fixed canary input: the start of the default seed's
// first corpus utterance.
func canaryFrames() ([][]float32, error) {
	corpus, err := makeCorpus(defaultSeed)
	if err != nil {
		return nil, err
	}
	u := corpus.Train[0].Frames
	if len(u) < canaryLen {
		return nil, fmt.Errorf("canary utterance has %d frames, want %d", len(u), canaryLen)
	}
	return u[:canaryLen], nil
}

// checkCanary runs the canary through the oracle and the engine. It fails
// when the oracle's digest moved from the stored one, or when the engine
// differs from the oracle.
func checkCanary(cfg config, model *nn.Model, eng *rtmobile.Engine) (oracleDigest string, err error) {
	frames, err := canaryFrames()
	if err != nil {
		return "", err
	}
	want := oracle(model, [][][]float32{frames})[0]
	oracleDigest = digest(want)
	if cfg.CanaryDigest != "" && oracleDigest != cfg.CanaryDigest {
		return oracleDigest, fmt.Errorf("oracle digest %s differs from the stored %s", oracleDigest, cfg.CanaryDigest)
	}
	if !sameBits(eng.Infer(frames), want) {
		return oracleDigest, fmt.Errorf("Engine.Infer differs from the oracle on the canary")
	}
	return oracleDigest, nil
}
