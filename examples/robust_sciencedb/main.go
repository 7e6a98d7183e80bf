// Robust science DB: CycleSQL on a ScienceBenchmark-style scientific
// database (the paper's Table I, right columns).
//
// General NL2SQL models degrade sharply on jargon-heavy scientific
// schemata; the example runs two simulated models over the oncomx domain
// with the verifier frozen from Spider — exactly the paper's robustness
// protocol — and reports base vs +CycleSQL execution accuracy plus the
// average number of loop iterations.
//
// Run with: go run ./examples/robust_sciencedb
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
	science := datasets.Science()
	verifier := experiments.Verifier(experiments.Limits{MaxTrain: 300, TrainModels: []string{"resdsql-3b", "gpt-3.5-turbo", "chess"}})

	for _, modelName := range []string{"gpt-3.5-turbo", "chess"} {
		pipeline := core.New(nl2sql.MustByName(modelName),
			core.WithVerifier(verifier), core.WithBenchmark(science.Name))
		pipeline.BeamSize = 5
		baseOK, loopOK, n := 0, 0, 0
		iters := 0
		for _, ex := range science.Dev {
			if ex.DBName != "oncomx" {
				continue
			}
			n++
			db := science.DB(ex.DBName)
			base, err := pipeline.BaselineContext(context.Background(), ex, db)
			if err != nil {
				panic(err)
			}
			if eval.EX(db, base, ex.Gold) {
				baseOK++
			}
			res, err := pipeline.Translate(context.Background(), ex, db)
			if err != nil {
				panic(err)
			}
			if eval.EX(db, res.Final, ex.Gold) {
				loopOK++
			}
			iters += res.Iterations
		}
		fmt.Printf("%-14s oncomx: base EX %4.1f%%  +cyclesql EX %4.1f%%  avg iterations %.2f\n",
			modelName,
			100*float64(baseOK)/float64(n),
			100*float64(loopOK)/float64(n),
			float64(iters)/float64(n))
	}
	fmt.Println("\nThe verifier was trained on Spider only (frozen weights), mirroring")
	fmt.Println("the paper's robustness setting for ScienceBenchmark.")
}
