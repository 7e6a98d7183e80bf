package core

import (
	"context"
	"math/rand"

	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/sql2nl"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// SQL2NLFeedback is the ablation feedback generator of paper Fig 9: a
// direct SQL-to-NL back-translation with no data grounding. It is defined
// in core (rather than sql2nl) so the two feedback generators share the
// Feedback contract.
type SQL2NLFeedback struct{}

// Name implements Feedback.
func (SQL2NLFeedback) Name() string { return "sql2nl" }

// Premise implements Feedback: the explanation describes the query surface
// only, ignoring the database instance (the paper's Fig 2 failure mode).
// The description is pure in-memory work, so the context goes unused.
func (SQL2NLFeedback) Premise(_ context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error) {
	return nli.Premise{
		Explanation: sql2nl.Describe(db.Schema, stmt),
		SQL:         nli.SQLOneLine(stmt.SQL()),
		Result:      resultSnippet(result),
	}, nil
}

// parseSQL re-parses the SQL text carried in a premise.
func parseSQL(sql string) (*sqlast.SelectStmt, error) { return sqlparse.Parse(sql) }

// TrainDataConfig controls verifier training-data collection.
type TrainDataConfig struct {
	// Models whose erroneous translations supply negative samples; the
	// paper harvests errors from its baseline models on the Spider train
	// split, yielding ~30k queries.
	Models []string
	// MaxExamples bounds the train-split examples visited (0 = all).
	MaxExamples int
	// Feedback generates premises; nil means one DataGrounded feedback
	// shared by the whole collection.
	Feedback Feedback
	// Seed drives the random representative-result selection.
	Seed int64
}

// BuildTrainingPairs implements the paper's §IV-D data-collection
// protocol on a benchmark's training split:
//
//   - positive samples pair the question with the explanation of a
//     randomly selected result of the gold query ("entailment");
//   - negative samples pair the question with the explanation of an
//     erroneous model translation — one whose execution result diverges
//     from gold ("contradiction").
//
// Negatives outnumber positives, reproducing the imbalance the focal loss
// compensates for.
//
// Collection is offline but can be long (thousands of executions), so the
// caller's context threads through every execution, translation and
// premise; cancelling it returns the pairs collected so far shuffled.
func BuildTrainingPairs(ctx context.Context, bench *datasets.Benchmark, cfg TrainDataConfig) []nli.Pair {
	fb := cfg.Feedback
	if fb == nil {
		fb = &DataGrounded{}
	}
	if len(cfg.Models) == 0 {
		cfg.Models = nl2sql.ModelNames()
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	examples := bench.Train
	if cfg.MaxExamples > 0 && len(examples) > cfg.MaxExamples {
		examples = examples[:cfg.MaxExamples]
	}
	var pairs []nli.Pair
	for _, ex := range examples {
		if ctx.Err() != nil {
			break
		}
		db := bench.DB(ex.DBName)
		executor := sqleval.New(db)
		goldRes, err := executor.Run(ctx, ex.Gold)
		if err != nil {
			continue
		}
		goldRel := goldRes.Rel
		// Positive sample from the human-curated gold pair.
		if premise, err := fb.Premise(ctx, db, ex.Gold, goldRel); err == nil {
			pairs = append(pairs, nli.Pair{Hypothesis: ex.Question, Premise: premise, Label: 1})
		}
		// Negative samples from model errors: beam candidates whose
		// execution diverges from gold. Sampling a short beam (not just
		// top-1) matches the distribution the verifier faces inside the
		// feedback loop.
		negs := 0
		for _, name := range cfg.Models {
			model := nl2sql.MustByName(name)
			cands, err := nl2sql.TranslateContext(ctx, model, bench.Name, ex, db, 3)
			if err != nil {
				continue
			}
			for _, cand := range cands {
				if negs >= 6 {
					break
				}
				res, err := executor.Run(ctx, cand.Stmt)
				if err != nil {
					continue
				}
				if sqltypes.BagEqual(res.Rel, goldRel) {
					res.Release()
					continue // correct translations are not contradictions
				}
				premise, err := fb.Premise(ctx, db, cand.Stmt, res.Rel)
				res.Release()
				if err != nil {
					continue
				}
				pairs = append(pairs, nli.Pair{Hypothesis: ex.Question, Premise: premise, Label: 0})
				negs++
			}
		}
		goldRes.Release()
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// TrainVerifier collects pairs on the benchmark's train split and fits the
// dedicated NLI verifier with the paper's training settings. The context
// governs the collection phase; see BuildTrainingPairs.
func TrainVerifier(ctx context.Context, bench *datasets.Benchmark, dataCfg TrainDataConfig, trainCfg nli.TrainConfig) *nli.Trained {
	pairs := BuildTrainingPairs(ctx, bench, dataCfg)
	return nli.Train(pairs, trainCfg)
}

// OracleVerifier builds the perfect verifier of paper Table III: it labels
// a premise "entailment" exactly when the underlying SQL executes to the
// gold result. It inspects the SQL carried inside the premise, and both
// executions stop when the verdict's context is done.
func OracleVerifier(bench *datasets.Benchmark, examplesByQuestion map[string]datasets.Example) nli.Verifier {
	return nli.Func{
		Label: "oracle",
		Fn: func(ctx context.Context, hypothesis string, premise nli.Premise) bool {
			ex, ok := examplesByQuestion[hypothesis]
			if !ok {
				return false
			}
			pred, err := parseSQL(premise.SQL)
			if err != nil {
				return false
			}
			return eval.EXContext(ctx, bench.DB(ex.DBName), pred, ex.Gold)
		},
	}
}

// IndexByQuestion builds the oracle's lookup table for a split.
func IndexByQuestion(split []datasets.Example) map[string]datasets.Example {
	out := make(map[string]datasets.Example, len(split))
	for _, ex := range split {
		out[ex.Question] = ex
	}
	return out
}
