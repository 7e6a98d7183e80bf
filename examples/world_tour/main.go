// World tour: the paper's Table IV case study on the world_1 database.
//
// For each of the five case-study questions — spanning aggregation, simple
// lookup, INTERSECT, nested negation, and GROUP BY/HAVING — the program
// prints the executed SQL, the to-explain result tuple, the why-provenance
// retrieved by query rewriting, and the polished NL explanation.
//
// Run with: go run ./examples/world_tour
package main

import (
	"context"
	"fmt"

	"cyclesql/internal/datasets"
	"cyclesql/internal/explain"
	"cyclesql/internal/provenance"
	"cyclesql/internal/sqleval"
)

func main() {
	bench := datasets.Spider()
	db := bench.DB("world_1")
	count := 0
	for _, ex := range bench.Dev {
		if ex.DBName != "world_1" || count >= 5 {
			continue
		}
		count++
		res, err := sqleval.New(db).Run(context.Background(), ex.Gold)
		if err != nil {
			panic(err)
		}
		rel := res.Rel
		fmt.Printf("Q%d: %s\nSQL: %s\n", count, ex.Question, ex.GoldSQL)
		if rel.NumRows() > 0 {
			fmt.Print("To-explain result: ")
			for _, v := range rel.Rows[0] {
				fmt.Printf("%s  ", v)
			}
			fmt.Println()
		}
		prov, err := provenance.NewTracker(db).TrackContext(context.Background(), ex.Gold, rel, 0)
		if err != nil {
			panic(err)
		}
		for i, part := range prov.Parts {
			if part.Table == nil {
				continue
			}
			fmt.Printf("Provenance part %d: %d tuple(s) via %s\n", i+1, part.Table.NumRows(), part.Rewritten.SQL())
		}
		e := explain.New(db)
		e.Polish = explain.RulePolisher{}
		exp, err := e.FromProvenance(prov)
		if err != nil {
			panic(err)
		}
		prov.Release()
		res.Release()
		fmt.Println("Explanation:", exp.Text)
		fmt.Println()
	}
}
