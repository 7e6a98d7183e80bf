// Quickstart: plug CycleSQL into an NL2SQL model in ~30 lines.
//
// The pipeline wraps any nl2sql.Model (here a simulated RESDSQL-3B) with
// the self-provided feedback loop: execute a candidate, explain one result
// tuple from its provenance, and let the NLI verifier decide whether the
// explanation entails the question.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nl2sql"
)

func main() {
	// 1. A benchmark supplies databases and questions.
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)

	// 2. Train (or load) the NLI verifier once; it stays frozen afterwards.
	verifier := experiments.Verifier(experiments.Limits{MaxTrain: 200, TrainModels: []string{"resdsql-3b", "gpt-3.5-turbo"}})

	// 3. Wrap any model with the feedback loop. Unset fields take the
	// paper's defaults: beam 8, data-grounded feedback, sequential loop.
	pipeline := &core.Pipeline{
		Model:     nl2sql.MustByName("resdsql-3b"),
		Verifier:  verifier,
		Benchmark: bench.Name,
	}

	res, err := pipeline.Translate(context.Background(), ex, db)
	if err != nil {
		panic(err)
	}
	fmt.Println("Question:   ", ex.Question)
	fmt.Println("Translation:", res.FinalSQL)
	fmt.Println("Verified:   ", res.Verified, "after", res.Iterations, "iteration(s)")
	fmt.Println("Correct:    ", eval.EXContext(context.Background(), db, res.Final, ex.Gold))
	if len(res.Premises) > 0 && res.Premises[res.Iterations-1].Explanation != "" {
		fmt.Println("Explanation:", res.Premises[res.Iterations-1].Explanation)
	}
}
