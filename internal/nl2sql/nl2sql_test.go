package nl2sql

import (
	"context"
	"math/rand"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlnorm"
)

func TestModelRegistry(t *testing.T) {
	names := ModelNames()
	if len(names) != 8 {
		t.Fatalf("expected 8 simulated baselines, got %d", len(names))
	}
	for _, n := range names {
		m, err := ByName(n)
		if err != nil || m.Name() != n {
			t.Fatalf("ByName(%s): %v", n, err)
		}
		if m.BaseLatency() <= 0 {
			t.Fatalf("%s: latency must be positive", n)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestTranslateDeterministic(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[3]
	db := bench.DB(ex.DBName)
	m := MustByName("resdsql-3b")
	a := m.Translate(bench.Name, ex, db, 8)
	b := m.Translate(bench.Name, ex, db, 8)
	if len(a) != len(b) {
		t.Fatal("non-deterministic beam size")
	}
	for i := range a {
		if a[i].SQL != b[i].SQL {
			t.Fatalf("non-deterministic candidate %d: %q vs %q", i, a[i].SQL, b[i].SQL)
		}
	}
}

func TestCandidatesAllExecutable(t *testing.T) {
	bench := datasets.Spider()
	m := MustByName("gpt-3.5-turbo")
	for _, ex := range bench.Dev[:40] {
		db := bench.DB(ex.DBName)
		for _, cand := range m.Translate(bench.Name, ex, db, 5) {
			if _, err := sqleval.New(db).ExecContext(context.Background(), cand.Stmt); err != nil {
				t.Fatalf("candidate does not execute: %s (%v)", cand.SQL, err)
			}
		}
	}
}

func TestCandidatesDistinctAndScored(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[5]
	db := bench.DB(ex.DBName)
	cands := MustByName("resdsql-large").Translate(bench.Name, ex, db, 8)
	if len(cands) != 8 {
		t.Fatalf("beam size: %d", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("scores must be non-increasing")
		}
	}
}

func TestCalibrationOrdering(t *testing.T) {
	// Base top-1 EX on the Spider dev slice must reflect the calibrated
	// ordering: dail-sql > resdsql-3b > gpt-3.5 > chess.
	bench := datasets.Spider()
	dev := bench.Dev[:200]
	acc := func(name string) float64 {
		m := MustByName(name)
		ok := 0
		for _, ex := range dev {
			db := bench.DB(ex.DBName)
			c := m.Translate(bench.Name, ex, db, 1)
			if eval.EX(db, c[0].Stmt, ex.Gold) {
				ok++
			}
		}
		return float64(ok) / float64(len(dev))
	}
	dail, res, chess := acc("dail-sql"), acc("resdsql-3b"), acc("chess")
	if !(dail > chess && res > chess) {
		t.Fatalf("calibration ordering broken: dail=%.2f res=%.2f chess=%.2f", dail, res, chess)
	}
	if chess > 0.6 {
		t.Fatalf("chess must be depressed on spider: %.2f", chess)
	}
}

func TestBeamCeilingAboveTop1(t *testing.T) {
	bench := datasets.Spider()
	dev := bench.Dev[:150]
	m := MustByName("gpt-3.5-turbo")
	top1, any5 := 0, 0
	for _, ex := range dev {
		db := bench.DB(ex.DBName)
		cands := m.Translate(bench.Name, ex, db, 5)
		if eval.EX(db, cands[0].Stmt, ex.Gold) {
			top1++
		}
		for _, c := range cands {
			if eval.EX(db, c.Stmt, ex.Gold) {
				any5++
				break
			}
		}
	}
	if any5 <= top1 {
		t.Fatalf("beam must recover gold beyond top-1: top1=%d any5=%d", top1, any5)
	}
}

func TestScienceDegradation(t *testing.T) {
	sci := datasets.Science()
	dev := sci.Dev[:80]
	resOK, chessOK := 0, 0
	for _, ex := range dev {
		db := sci.DB(ex.DBName)
		if c := MustByName("resdsql-3b").Translate(sci.Name, ex, db, 1); eval.EX(db, c[0].Stmt, ex.Gold) {
			resOK++
		}
		if c := MustByName("chess").Translate(sci.Name, ex, db, 1); eval.EX(db, c[0].Stmt, ex.Gold) {
			chessOK++
		}
	}
	if chessOK <= resOK {
		t.Fatalf("chess must lead on science: chess=%d resdsql=%d", chessOK, resOK)
	}
}

func TestLLMStyleGapEMvsEX(t *testing.T) {
	bench := datasets.Spider()
	dev := bench.Dev[:200]
	m := MustByName("gpt-3.5-turbo")
	em, ex := 0, 0
	for _, e := range dev {
		db := bench.DB(e.DBName)
		c := m.Translate(bench.Name, e, db, 1)
		if eval.EM(c[0].Stmt, e.Gold) {
			em++
		}
		if eval.EX(db, c[0].Stmt, e.Gold) {
			ex++
		}
	}
	if em >= ex {
		t.Fatalf("LLM style gap missing: EM=%d EX=%d", em, ex)
	}
}

func TestCorruptorProducesValidDifferentSQL(t *testing.T) {
	bench := datasets.Spider()
	rng := rand.New(rand.NewSource(5))
	for _, ex := range bench.Dev[:60] {
		db := bench.DB(ex.DBName)
		c := &corruptor{db: db, rng: rng}
		mut := c.corrupt(ex.Gold)
		if _, err := sqleval.New(db).ExecContext(context.Background(), mut); err != nil {
			t.Fatalf("corruption does not execute: %s (%v)", mut.SQL(), err)
		}
		if sqlnorm.Canonical(mut) == sqlnorm.Canonical(ex.Gold) {
			t.Fatalf("corruption EM-equal to gold: %s", mut.SQL())
		}
	}
}

func TestStyleVariantPreservesExecution(t *testing.T) {
	bench := datasets.Spider()
	rng := rand.New(rand.NewSource(6))
	changed := 0
	for _, ex := range bench.Dev[:80] {
		db := bench.DB(ex.DBName)
		variant := styleVariant(db, ex.Gold, rng)
		if !eval.EX(db, variant, ex.Gold) {
			t.Fatalf("style variant changed execution: %s vs %s", variant.SQL(), ex.GoldSQL)
		}
		if variant.SQL() != ex.Gold.SQL() {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("style variants never fired")
	}
}

func TestDKDegradation(t *testing.T) {
	dk := datasets.SpiderDK()
	spider := datasets.Spider()
	m := MustByName("smbop")
	accOn := func(b *datasets.Benchmark, n int) float64 {
		dev := b.Dev
		if len(dev) > n {
			dev = dev[:n]
		}
		ok := 0
		for _, ex := range dev {
			db := b.DB(ex.DBName)
			if c := m.Translate(b.Name, ex, db, 1); eval.EX(db, c[0].Stmt, ex.Gold) {
				ok++
			}
		}
		return float64(ok) / float64(len(dev))
	}
	if accOn(dk, 60) >= accOn(spider, 120) {
		t.Fatal("DK must degrade smbop accuracy")
	}
}

func TestSampleRankDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	deep, shallow := 0, 0
	for i := 0; i < 2000; i++ {
		if sampleRank(rng, 7, 2.5) >= 4 {
			deep++
		}
		if sampleRank(rng, 7, 0) >= 4 {
			shallow++
		}
	}
	if deep <= shallow {
		t.Fatalf("decay must push gold deeper: deep=%d shallow=%d", deep, shallow)
	}
	if sampleRank(rng, 1, 1) != 0 {
		t.Fatal("n=1 must return 0")
	}
}
