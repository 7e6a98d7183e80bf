package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nli"
	"cyclesql/internal/nn"
)

var updateGoldens = flag.Bool("update", false, "rewrite the verifier training and premise goldens")

const verifierGolden = "testdata/verifier.golden"

// TestVerifierTrainingGolden pins the default trained verifier bit for bit.
// It runs the §IV-D protocol with the default limits (500 Spider train
// examples, the five default error models, seed 1), trains the verifier
// with its default configuration, and records SHA-256 digests over
// math.Float64bits of
//
//	(a) the feature vector of every training pair,
//	(b) the feature vectors of the same protocol run over the dev split,
//	(c) every trained weight, the calibrated threshold and the per-epoch
//	    training losses,
//	(d) the trained verifier's Score over the pairs of (b).
//
// Any change to tokenization, featurization, training or calibration that
// moves a single bit shows up here. Regenerate deliberately with
//
//	go test ./internal/core -run TestVerifierTrainingGolden -update
func TestVerifierTrainingGolden(t *testing.T) {
	ctx := context.Background()
	bench := datasets.Spider()
	cfg := core.TrainDataConfig{
		Models:      experiments.DefaultLimits.TrainModels,
		MaxExamples: experiments.DefaultLimits.MaxTrain,
		Seed:        1,
	}
	train := core.BuildTrainingPairs(ctx, bench, cfg)
	devBench := *bench
	devBench.Train = bench.Dev
	dev := core.BuildTrainingPairs(ctx, &devBench, cfg)

	feat := nli.DefaultFeaturizer
	samples := make([]nn.Sample, len(train))
	trainDigest := newFloatDigest()
	for i, p := range train {
		x := feat.Features(p.Hypothesis, p.Premise)
		trainDigest.floats(x)
		samples[i] = nn.Sample{X: x, Y: p.Label}
	}
	devDigest := newFloatDigest()
	for _, p := range dev {
		devDigest.floats(feat.Features(p.Hypothesis, p.Premise))
	}

	trainCfg := nli.TrainConfig{Seed: 2}
	v := nli.Train(train, trainCfg)
	// nli.Train keeps its per-epoch losses to itself; replay its training
	// step (defaults: 48 hidden units, 60 epochs, batch 32, LR 0.008,
	// model seed = Seed+1) to capture them, and require the replay to
	// land on the same weights.
	replay := nn.NewMLP(feat.Dim(), 48, trainCfg.Seed+1)
	losses := nn.Train(replay, samples, nn.TrainConfig{
		Epochs: 60, BatchSize: 32, LR: 0.008, Seed: trainCfg.Seed, Loss: nn.PaperFocal,
	})
	modelDigest := newFloatDigest()
	modelDigest.model(v.Model)
	modelDigest.floats([]float64{v.Threshold})
	modelDigest.floats(losses)
	replayDigest := newFloatDigest()
	replayDigest.model(replay)
	replayDigest.floats([]float64{v.Threshold})
	replayDigest.floats(losses)
	if modelDigest.sum() != replayDigest.sum() {
		t.Fatal("replayed nn.Train does not reproduce nli.Train's weights: update the replay's defaults")
	}

	scoreDigest := newFloatDigest()
	for _, p := range dev {
		scoreDigest.floats([]float64{v.Score(p.Hypothesis, p.Premise)})
	}

	got := fmt.Sprintf("train_pairs %d\ntrain_features %s\ndev_pairs %d\ndev_features %s\n"+
		"threshold %v\nfinal_loss %v\nmodel %s\ndev_scores %s\n",
		len(train), trainDigest.sum(), len(dev), devDigest.sum(),
		v.Threshold, losses[len(losses)-1], modelDigest.sum(), scoreDigest.sum())
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(verifierGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verifierGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verifierGolden)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", verifierGolden, err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i < len(wl) && gl[i] != wl[i] {
				t.Errorf("verifier golden drift: got %q want %q", gl[i], wl[i])
			}
		}
		t.Fatal("verifier training moved: regenerate with -update only if deliberate")
	}
}

// floatDigest hashes float64 slices bit for bit, each prefixed with its
// length so that element boundaries are part of the digest.
type floatDigest struct {
	h   hash.Hash
	buf [8]byte
}

func newFloatDigest() *floatDigest { return &floatDigest{h: sha256.New()} }

func (d *floatDigest) word(u uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], u)
	d.h.Write(d.buf[:])
}

func (d *floatDigest) floats(xs []float64) {
	d.word(uint64(len(xs)))
	for _, x := range xs {
		d.word(math.Float64bits(x))
	}
}

func (d *floatDigest) model(m *nn.MLP) {
	d.word(uint64(m.In))
	d.word(uint64(m.Hidden))
	for _, row := range m.W1 {
		d.floats(row)
	}
	d.floats(m.B1)
	d.floats(m.W2)
	d.floats([]float64{m.B2})
}

func (d *floatDigest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }
