package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/experiments"
	"cyclesql/internal/explain"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/sqleval"
)

const premiseGolden = "testdata/premise.golden"

// TestPremiseGolden pins the data-grounded explanations byte for byte. It
// records SHA-256 digests over
//
//	(a) the Summary, Steps and Text of every explanation of rows 0-2 (or
//	    the empty-result explanation) of every candidate in every
//	    simulated model's beam-8 over Spider dev, one explainer per
//	    database;
//	(b) the Hypothesis and Premise (Explanation, SQL, Result) of every
//	    pair of the default §IV-D training protocol, over the train split
//	    and over the dev split.
//
// Any change to provenance tracking, annotation, the provenance graph,
// phrase composition or premise rendering that moves a single byte shows
// up here. Regenerate deliberately with
//
//	go test ./internal/core -run TestPremiseGolden -update
func TestPremiseGolden(t *testing.T) {
	ctx := context.Background()
	bench := datasets.Spider()

	explainers := map[string]*explain.Explainer{}
	execs := map[string]*sqleval.Executor{}
	beams := newStringDigest()
	candidates, explanations, execErrors := 0, 0, 0
	for _, name := range nl2sql.ModelNames() {
		m := nl2sql.MustByName(name)
		for _, ex := range bench.Dev {
			db := bench.DB(ex.DBName)
			e, ok := explainers[ex.DBName]
			if !ok {
				e = explain.New(db)
				explainers[ex.DBName] = e
				execs[ex.DBName] = sqleval.New(db)
			}
			for _, c := range m.Translate(bench.Name, ex, db, 8) {
				candidates++
				rel, err := execs[ex.DBName].ExecContext(ctx, c.Stmt)
				if err != nil {
					execErrors++
					continue
				}
				rows := min(max(rel.NumRows(), 1), 3)
				for r := 0; r < rows; r++ {
					exp, err := e.ExplainContext(ctx, c.Stmt, rel, r)
					if err != nil {
						t.Fatalf("%s %s row %d: %v", name, ex.ID, r, err)
					}
					explanations++
					beams.strings(exp.Summary, exp.Text)
					beams.strings(exp.Steps...)
				}
			}
		}
	}

	cfg := core.TrainDataConfig{
		Models:      experiments.DefaultLimits.TrainModels,
		MaxExamples: experiments.DefaultLimits.MaxTrain,
		Seed:        1,
	}
	train := core.BuildTrainingPairs(ctx, bench, cfg)
	devBench := *bench
	devBench.Train = bench.Dev
	dev := core.BuildTrainingPairs(ctx, &devBench, cfg)
	pairDigest := func(pairs []nli.Pair) string {
		d := newStringDigest()
		for _, p := range pairs {
			d.strings(p.Hypothesis, p.Premise.Explanation, p.Premise.SQL, p.Premise.Result)
		}
		return d.sum()
	}

	got := fmt.Sprintf("beam_candidates %d\nexec_errors %d\nexplanations %d\nbeam_explanations %s\n"+
		"train_pairs %d\ntrain_premises %s\ndev_pairs %d\ndev_premises %s\n",
		candidates, execErrors, explanations, beams.sum(),
		len(train), pairDigest(train), len(dev), pairDigest(dev))
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(premiseGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(premiseGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(premiseGolden)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", premiseGolden, err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i < len(wl) && gl[i] != wl[i] {
				t.Errorf("premise golden drift: got %q want %q", gl[i], wl[i])
			}
		}
		t.Fatal("explanations moved: regenerate with -update only if deliberate")
	}
}

// stringDigest hashes strings byte for byte, each prefixed with its
// length so that string boundaries are part of the digest.
type stringDigest struct {
	h   hash.Hash
	buf [8]byte
}

func newStringDigest() *stringDigest { return &stringDigest{h: sha256.New()} }

func (d *stringDigest) strings(ss ...string) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(len(ss)))
	d.h.Write(d.buf[:])
	for _, s := range ss {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(len(s)))
		d.h.Write(d.buf[:])
		d.h.Write([]byte(s))
	}
}

func (d *stringDigest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }
