package experiments_test

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"cyclesql/internal/core"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nli"
)

// frozenVerifierFile is the default verifier experiments embeds.
const frozenVerifierFile = "verifier.json"

// TestFrozenVerifier pins the embedded default verifier to a fresh
// training: the §IV-D protocol at DefaultLimits' config on data-grounded
// premises, trained past the cache, must marshal to the embedded bytes
// exactly. Regenerate deliberately with
//
//	go test ./internal/experiments -run TestFrozenVerifier -update
func TestFrozenVerifier(t *testing.T) {
	v := experiments.TrainVerifier(experiments.DefaultLimits, core.NewDataGrounded())
	got, err := nli.MarshalTrained(v)
	if err != nil {
		t.Fatal(err)
	}
	if *updatePaper {
		if err := os.WriteFile(frozenVerifierFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got, experiments.FrozenVerifier()) {
		t.Fatalf("a fresh training of the default verifier (%d bytes) differs from %s (%d bytes): regenerate with -update only if deliberate",
			len(got), frozenVerifierFile, len(experiments.FrozenVerifier()))
	}
}

// loadAllocBound caps what loading the default verifier may allocate. On
// linux/amd64 with Go 1.24, loading it allocates 0.42 MB, training it
// 106 MB and training the MaxTrain 200 config below 18.7 MB (161 and
// 30 MB under -race).
const loadAllocBound = 4 << 20

// totalAlloc returns the bytes f allocates.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestVerifierLoadsOnlyAtDefaults requires the default training config to
// load the embedded model, allocating under loadAllocBound, and every
// other config to train: a smaller training split, which allocates over
// the bound, and Fig 9's SQL2NL premises at the default split.
func TestVerifierLoadsOnlyAtDefaults(t *testing.T) {
	lim := experiments.DefaultLimits
	experiments.ForgetVerifier(lim)
	var v *nli.Trained
	loadAlloc := totalAlloc(func() { v = experiments.Verifier(lim) })
	if loadAlloc > loadAllocBound {
		t.Fatalf("a cold Verifier(DefaultLimits) allocated %d bytes, over the load bound %d: did it train?", loadAlloc, loadAllocBound)
	}
	if experiments.Verifier(lim) != v {
		t.Fatal("a second Verifier call at the same limits must hit the cache")
	}
	frozen := experiments.FrozenVerifier()
	if b, err := nli.MarshalTrained(v); err != nil || !bytes.Equal(b, frozen) {
		t.Fatalf("Verifier(DefaultLimits) is not the embedded model (err %v)", err)
	}

	small := experiments.Limits{MaxTrain: 200, TrainModels: []string{"resdsql-3b", "gpt-3.5-turbo"}}
	experiments.ForgetVerifier(small)
	var sv *nli.Trained
	trainAlloc := totalAlloc(func() { sv = experiments.Verifier(small) })
	if trainAlloc <= loadAllocBound {
		t.Fatalf("Verifier at MaxTrain 200 allocated %d bytes, under the load bound %d: did it train?", trainAlloc, loadAllocBound)
	}
	if b, err := nli.MarshalTrained(sv); err != nil || bytes.Equal(b, frozen) {
		t.Fatalf("Verifier at MaxTrain 200 must train a model of its own (err %v)", err)
	}

	sql2nl := experiments.TrainedVerifier(lim, core.SQL2NLFeedback{})
	if b, err := nli.MarshalTrained(sql2nl); err != nil || bytes.Equal(b, frozen) {
		t.Fatalf("the SQL2NL verifier must train on its own premises, not load the frozen file (err %v)", err)
	}
}
