package core

import (
	"context"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqltypes"
)

func execGold(t *testing.T, bench *datasets.Benchmark, ex datasets.Example) *sqltypes.Relation {
	t.Helper()
	rel, err := sqleval.New(bench.DB(ex.DBName)).ExecContext(context.Background(), ex.Gold)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}
