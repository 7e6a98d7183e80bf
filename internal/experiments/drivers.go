package experiments

import (
	"context"
	"fmt"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/explain"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/sql2nl"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/storage"
	"cyclesql/internal/userstudy"
)

// Fig1 reproduces Fig 1: translation accuracy (any-beam-match EX) on the
// Spider dev split as the beam size (or chat-completion count) grows.
func Fig1(ctx context.Context, lim Limits) (*Table, error) {
	bench := datasets.Spider()
	dev := devSlice(bench, lim)
	models := []string{"picard-3b", "resdsql-large", "gpt-3.5-turbo", "dail-sql"}
	t := &Table{
		Title:   "Fig 1: accuracy vs beam size (any-beam EX, Spider dev)",
		Headers: []string{"k=1", "k=2", "k=3", "k=4", "k=5"},
	}
	for _, name := range models {
		model := nl2sql.MustByName(name)
		// One batch sweep per model scores all five beam widths for an
		// example at once; hits fold in dev order below.
		hits := make([][5]bool, len(dev))
		errs := lim.batch().Run(ctx, len(dev), func(ctx context.Context, i int) error {
			ex := dev[i]
			db := bench.DB(ex.DBName)
			for k := 1; k <= 5; k++ {
				for _, cand := range model.Translate(bench.Name, ex, db, k) {
					if eval.EXContext(ctx, db, cand.Stmt, ex.Gold) {
						hits[i][k-1] = true
						break
					}
				}
			}
			// A fired deadline silently fails EXContext; report it rather
			// than recording bogus misses.
			return ctx.Err()
		})
		if err := firstError(dev, errs); err != nil {
			return nil, err
		}
		row := Row{Label: name}
		for k := 1; k <= 5; k++ {
			hit := 0
			for i := range hits {
				if hits[i][k-1] {
					hit++
				}
			}
			row.Values = append(row.Values, pct(100*float64(hit)/float64(len(dev))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table1Benchmarks lists the evaluation benchmarks in paper order.
var Table1Benchmarks = []string{"spider", "spider-realistic", "spider-syn", "spider-dk", "science"}

// Table1Models lists the model rows in paper order.
var Table1Models = []string{
	"smbop", "picard-3b", "resdsql-large", "resdsql-3b",
	"gpt-3.5-turbo", "gpt-4", "chess", "dail-sql",
}

// Table1 reproduces Table I: EM/EX/TS for every model, base vs +CycleSQL,
// across the five benchmarks, with the verifier frozen from Spider.
func Table1(ctx context.Context, lim Limits) (*Table, error) {
	verifier := Verifier(lim)
	t := &Table{
		Title:   "Table I: overall translation results (EM/EX/TS %), base vs +CycleSQL",
		Headers: []string{"benchmark", "variant", "EM", "EX", "TS"},
	}
	for _, benchName := range Table1Benchmarks {
		bench, err := datasets.ByName(benchName)
		if err != nil {
			return nil, err
		}
		for _, model := range Table1Models {
			ps, err := EvaluateModel(ctx, bench, model, verifier, lim)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows,
				Row{Label: model, Values: []string{benchName, "base",
					pct(ps.Base.EM), pct(ps.Base.EX), pct(ps.Base.TS)}},
				Row{Label: model, Values: []string{benchName, "+cyclesql",
					delta(ps.Loop.EM, ps.Base.EM), delta(ps.Loop.EX, ps.Base.EX), delta(ps.Loop.TS, ps.Base.TS)}},
			)
		}
	}
	return t, nil
}

// exampleEX is one example's base and loop execution accuracy.
type exampleEX struct{ baseOK, loopOK bool }

// Table2 reproduces Table II: Spider dev EX broken down by difficulty.
func Table2(ctx context.Context, lim Limits) (*Table, error) {
	verifier := Verifier(lim)
	bench := datasets.Spider()
	dev := devSlice(bench, lim)
	t := &Table{
		Title:   "Table II: execution accuracy (%) by SQL difficulty (Spider dev)",
		Headers: []string{"variant", "easy", "medium", "hard", "extra"},
	}
	for _, modelName := range Table1Models {
		outs := make([]exampleEX, len(dev))
		_, err := lim.sweep(ctx, bench, dev, modelName, verifier, nil, func(ctx context.Context, i int, db *storage.Database, base *sqlast.SelectStmt, res *core.Result) {
			outs[i] = exampleEX{eval.EXContext(ctx, db, base, dev[i].Gold), eval.EXContext(ctx, db, res.Final, dev[i].Gold)}
		})
		if err != nil {
			return nil, err
		}
		type bucket struct{ baseOK, loopOK, n int }
		buckets := map[sqlnorm.Difficulty]bucket{}
		for i, ex := range dev {
			bk := buckets[ex.Difficulty]
			bk.n++
			if outs[i].baseOK {
				bk.baseOK++
			}
			if outs[i].loopOK {
				bk.loopOK++
			}
			buckets[ex.Difficulty] = bk
		}
		baseRow := Row{Label: modelName, Values: []string{"base"}}
		loopRow := Row{Label: modelName, Values: []string{"+cyclesql"}}
		for _, d := range sqlnorm.Difficulties {
			bk := buckets[d]
			if bk.n == 0 {
				baseRow.Values = append(baseRow.Values, "-")
				loopRow.Values = append(loopRow.Values, "-")
				continue
			}
			base := 100 * float64(bk.baseOK) / float64(bk.n)
			loop := 100 * float64(bk.loopOK) / float64(bk.n)
			baseRow.Values = append(baseRow.Values, pct(base))
			loopRow.Values = append(loopRow.Values, delta(loop, base))
		}
		t.Rows = append(t.Rows, baseRow, loopRow)
	}
	return t, nil
}

// Fig8aModels are the models whose iteration counts the paper reports.
var Fig8aModels = []string{"smbop", "picard-3b", "resdsql-large", "resdsql-3b", "gpt-3.5-turbo"}

// Fig8a reproduces Fig 8a: average CycleSQL iterations on Spider dev.
func Fig8a(ctx context.Context, lim Limits) (*Table, error) {
	verifier := Verifier(lim)
	bench := datasets.Spider()
	t := &Table{
		Title:   "Fig 8a: average iterations of CycleSQL (Spider dev)",
		Headers: []string{"avg iterations"},
	}
	for _, modelName := range Fig8aModels {
		ps, err := lim.sweep(ctx, bench, devSlice(bench, lim), modelName, verifier, nil, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Label: modelName, Values: []string{fmt.Sprintf("%.2f", ps.AvgIterations)}})
	}
	return t, nil
}

// Fig8bModels are the latency-comparison models (the paper omits PICARD,
// whose token-level constrained decoding is orders slower).
var Fig8bModels = []string{"smbop", "resdsql-large", "resdsql-3b", "gpt-3.5-turbo"}

// Fig8b reproduces Fig 8b: average inference time with and without
// CycleSQL. Model inference latency is the documented per-model constant
// (GPU wall-clock is unavailable offline); the CycleSQL overhead is the
// measured wall-clock of the real feedback loop.
func Fig8b(ctx context.Context, lim Limits) (*Table, error) {
	verifier := Verifier(lim)
	bench := datasets.Spider()
	t := &Table{
		Title:   "Fig 8b: average model inference time (ms), base vs +CycleSQL",
		Headers: []string{"base (ms)", "+cyclesql (ms)", "overhead (ms)"},
	}
	for _, modelName := range Fig8bModels {
		ps, err := lim.sweep(ctx, bench, devSlice(bench, lim), modelName, verifier, nil, nil)
		if err != nil {
			return nil, err
		}
		base := float64(nl2sql.MustByName(modelName).BaseLatency()) / float64(time.Millisecond)
		t.Rows = append(t.Rows, Row{Label: modelName, Values: []string{
			fmt.Sprintf("%.0f", base),
			fmt.Sprintf("%.1f", base+ps.AvgOverheadMS),
			fmt.Sprintf("%.2f", ps.AvgOverheadMS),
		}})
	}
	return t, nil
}

// Fig9Benchmarks are the four Spider-family benchmarks of the ablation.
var Fig9Benchmarks = []string{"spider", "spider-realistic", "spider-syn", "spider-dk"}

// Fig9 reproduces Fig 9: EX with CycleSQL feedback vs the simpler SQL2NL
// feedback, on RESDSQL-Large and GPT-3.5-turbo. The SQL2NL arm trains its
// own verifier on SQL2NL premises under identical settings (paper §V-A4).
func Fig9(ctx context.Context, lim Limits) (*Table, error) {
	arms := []struct {
		verifier nli.Verifier
		feedback core.Feedback
	}{
		{Verifier(lim), nil},
		{trainedVerifier(lim, core.SQL2NLFeedback{}), core.SQL2NLFeedback{}},
	}
	t := &Table{
		Title:   "Fig 9: feedback-quality ablation, EX (%)",
		Headers: []string{"benchmark", "base", "+cyclesql", "+sql2nl"},
	}
	for _, modelName := range []string{"resdsql-large", "gpt-3.5-turbo"} {
		for _, benchName := range Fig9Benchmarks {
			bench, err := datasets.ByName(benchName)
			if err != nil {
				return nil, err
			}
			dev := devSlice(bench, lim)
			// hits counts base EX from the first arm's sweep, then each
			// arm's loop EX.
			var hits [3]int
			for a, arm := range arms {
				outs := make([]exampleEX, len(dev))
				_, err := lim.sweep(ctx, bench, dev, modelName, arm.verifier, arm.feedback, func(ctx context.Context, i int, db *storage.Database, base *sqlast.SelectStmt, res *core.Result) {
					outs[i].loopOK = eval.EXContext(ctx, db, res.Final, dev[i].Gold)
					if a == 0 {
						outs[i].baseOK = eval.EXContext(ctx, db, base, dev[i].Gold)
					}
				})
				if err != nil {
					return nil, err
				}
				for _, o := range outs {
					if o.baseOK {
						hits[0]++
					}
					if o.loopOK {
						hits[a+1]++
					}
				}
			}
			n := float64(len(dev))
			row := Row{Label: modelName, Values: []string{benchName}}
			for _, h := range hits {
				row.Values = append(row.Values, pct(100*float64(h)/n))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Table3 reproduces Table III: verifier-selection ablation on RESDSQL-3B.
func Table3(ctx context.Context, lim Limits) (*Table, error) {
	bench := datasets.Spider()
	dev := devSlice(bench, lim)
	verifiers := []nli.Verifier{
		Verifier(lim),
		nli.FewShotLLM{},
		nli.PrebuiltNLI{},
		core.OracleVerifier(bench, core.IndexByQuestion(dev)),
	}
	t := &Table{
		Title:   "Table III: translation results of different verifier selections (Spider dev, RESDSQL-3B)",
		Headers: []string{"EM", "EX", "TS"},
	}
	labels := []string{"+cyclesql", "+cyclesql (llm verifier)", "+cyclesql (prebuilt nli)", "+cyclesql (oracle verifier)"}
	for i, v := range verifiers {
		ps, err := EvaluateModel(ctx, bench, "resdsql-3b", v, lim)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// The base row scores the model alone, whatever the verifier.
			t.Rows = append(t.Rows, Row{Label: "base model", Values: []string{
				pct(ps.Base.EM), pct(ps.Base.EX), pct(ps.Base.TS)}})
		}
		t.Rows = append(t.Rows, Row{Label: labels[i], Values: []string{
			delta(ps.Loop.EM, ps.Base.EM), delta(ps.Loop.EX, ps.Base.EX), delta(ps.Loop.TS, ps.Base.TS)}})
	}
	return t, nil
}

// caseStudyIDs are the Table IV queries (the first five world_1 pairs).
const caseStudyCount = 5

// Table4 reproduces Table IV: case-study explanations for the five
// world_1 queries, polished for readability as in the paper.
func Table4(ctx context.Context, _ Limits) (*Table, error) {
	t := &Table{
		Title:   "Table IV: NL explanations produced by CycleSQL (world_1)",
		Headers: []string{"question / explanation"},
	}
	err := caseStudies(ctx, func(n int, ex datasets.Example, text, _ string) {
		t.Rows = append(t.Rows,
			Row{Label: fmt.Sprintf("Q%d", n), Values: []string{ex.Question}},
			Row{Label: "", Values: []string{text}},
		)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig10 reproduces Fig 10: the simulated user study over the five Table IV
// queries, CycleSQL explanations vs the simpler GPT-3.5-style (SQL2NL)
// explanations, on the paper's two dimensions plus overall ratings.
func Fig10(ctx context.Context, _ Limits) (*Table, error) {
	schema := datasets.Spider().DB("world_1").Schema
	t := &Table{
		Title:   "Fig 10: simulated user study (mean 1-10 ratings, 20 raters)",
		Headers: []string{"dimension", "gpt-3.5 style", "cyclesql", "prefer cyclesql"},
	}
	err := caseStudies(ctx, func(n int, ex datasets.Example, text, resultText string) {
		cycleItem := userstudy.Item{Question: ex.Question, Result: resultText, Explanation: text}
		simpleItem := userstudy.Item{Question: ex.Question, Result: resultText, Explanation: sql2nl.Describe(schema, ex.Gold)}
		seed := int64(1000 + n)
		for _, dim := range []userstudy.Dimension{userstudy.Interpretability, userstudy.Entailment, userstudy.Overall} {
			rc := userstudy.Score(cycleItem, dim, seed)
			rs := userstudy.Score(simpleItem, dim, seed)
			prefer := userstudy.Compare(cycleItem, simpleItem, seed)
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("Q%d", n),
				Values: []string{string(dim), fmt.Sprintf("%.1f (%s)", rs.Mean, rs.Verdict()),
					fmt.Sprintf("%.1f (%s)", rc.Mean, rc.Verdict()),
					fmt.Sprintf("%d/20", prefer)},
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// caseStudies executes the five Table IV queries, the first world_1 dev
// examples, and explains each one's first result row with the rule
// polisher. It hands visit the case number (from 1), the example, the
// explanation text and the first row's values, each followed by a space.
func caseStudies(ctx context.Context, visit func(n int, ex datasets.Example, text, row string)) error {
	bench := datasets.Spider()
	db := bench.DB("world_1")
	e := explain.New(db)
	e.Polish = explain.RulePolisher{}
	n := 0
	for _, ex := range bench.Dev {
		if ex.DBName != "world_1" || n >= caseStudyCount {
			continue
		}
		n++
		res, err := sqleval.New(db).Run(ctx, ex.Gold)
		if err != nil {
			return err
		}
		exp, err := e.ExplainContext(ctx, ex.Gold, res.Rel, 0)
		if err != nil {
			res.Release()
			return err
		}
		exp.Prov.Release()
		row := ""
		if res.Rel.NumRows() > 0 {
			for _, v := range res.Rel.Rows[0] {
				row += v.String() + " "
			}
		}
		res.Release()
		visit(n, ex, exp.Text, row)
	}
	return nil
}

// Experiment is one paper artifact and the function that regenerates it.
// Run takes the context its sweeps run under — cancelling it aborts the
// in-flight example executions and Run returns the context's error.
type Experiment struct {
	ID  string
	Run func(context.Context, Limits) (*Table, error)
}

// Registry lists every paper artifact in presentation order.
var Registry = []Experiment{
	{"fig1", Fig1},
	{"table1", Table1},
	{"table2", Table2},
	{"fig8a", Fig8a},
	{"fig8b", Fig8b},
	{"fig9", Fig9},
	{"table3", Table3},
	{"table4", Table4},
	{"fig10", Fig10},
}

// Lookup returns the registered experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
