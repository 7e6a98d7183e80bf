// Flight analytics: the paper's motivating scenario (Fig 2).
//
// An analyst asks "Show all flight numbers with aircraft Airbus A340-300."
// A plain SQL2NL back-translation of the model's wrong answer — a count
// instead of a listing — reads as if the translation were fine. CycleSQL's
// data-grounded explanation surfaces the count semantics ("there are 2
// flights in total"), letting the verifier reject the translation and
// recover the correct candidate from the beam.
//
// Run with: go run ./examples/flight_analytics
package main

import (
	"context"
	"fmt"

	"cyclesql/internal/datasets"
	"cyclesql/internal/explain"
	"cyclesql/internal/sql2nl"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
)

func main() {
	db := datasets.FlightDB()
	question := "Show all flight numbers with aircraft Airbus A340-300."
	cases := []struct {
		label string
		stmt  *sqlast.SelectStmt
	}{
		{"erroneous model output", sqlparse.MustParse("SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")},
		{"correct translation", sqlparse.MustParse("SELECT T1.flno FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")},
	}

	fmt.Println("Question:", question)
	fmt.Println()
	for _, c := range cases {
		res, err := sqleval.New(db).Run(context.Background(), c.stmt)
		if err != nil {
			panic(err)
		}
		rel := res.Rel
		fmt.Printf("== %s ==\nSQL: %s\n", c.label, c.stmt.SQL())
		fmt.Println("Result:")
		fmt.Println(rel.String())
		fmt.Println("SQL2NL back-translation (data-blind):")
		fmt.Println(" ", sql2nl.Describe(db.Schema, c.stmt))
		e := explain.New(db)
		e.Polish = explain.RulePolisher{}
		exp, err := e.ExplainContext(context.Background(), c.stmt, rel, 0)
		if err != nil {
			panic(err)
		}
		exp.Prov.Release()
		res.Release()
		fmt.Println("CycleSQL data-grounded explanation:")
		fmt.Println(" ", exp.Text)
		fmt.Println()
	}
	fmt.Println("The count-vs-list mismatch is only visible in the data-grounded")
	fmt.Println("explanation - exactly the feedback signal the verifier uses.")
}
