package sqleval

import (
	"fmt"
	"math/rand"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqlgen"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// randomDB builds two tables whose columns deliberately violate their
// declared affinity: the INTEGER columns also hold REAL, TEXT (including
// numeric-looking text, which Compare still orders as text) and NULL
// values, so every randomized predicate exercises cross-kind Compare
// semantics and NULL boundaries through the index and scan paths alike.
func randomDB(t testing.TB, rng *rand.Rand) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "randdb",
		Tables: []*schema.Table{
			{Name: "T", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "num", Type: sqltypes.KindInt},
				{Name: "val", Type: sqltypes.KindFloat},
				{Name: "txt", Type: sqltypes.KindText},
			}},
			{Name: "U", Columns: []schema.Column{
				{Name: "k1", Type: sqltypes.KindInt},
				{Name: "k2", Type: sqltypes.KindText},
				{Name: "w", Type: sqltypes.KindInt},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	mixed := func() sqltypes.Value {
		switch rng.Intn(10) {
		case 0, 1: // NULL boundary rows
			return sqltypes.Null()
		case 2, 3: // REAL, half-integral so ties with INTEGER happen too
			return sqltypes.NewFloat(float64(rng.Intn(21)-5) / 2)
		case 4: // numeric-looking text: orders as text, never as a number
			return sqltypes.NewText(fmt.Sprint(rng.Intn(12)))
		default: // small INTEGER domain, dense with duplicates
			return sqltypes.NewInt(int64(rng.Intn(12) - 2))
		}
	}
	words := []string{"a", "b", "m", "z", "5", "mm"}
	for i := 0; i < 240; i++ {
		var txt sqltypes.Value
		if rng.Intn(8) == 0 {
			txt = sqltypes.Null()
		} else {
			txt = sqltypes.NewText(words[rng.Intn(len(words))])
		}
		// Raw relation appends keep the mixed kinds intact (Insert would
		// coerce numerics toward the declared affinity on some columns);
		// the storage layer's row-count checks rebuild indexes over them.
		db.Table("T").Append(sqltypes.Row{sqltypes.NewInt(int64(i)), mixed(), mixed(), txt})
	}
	for i := 0; i < 120; i++ {
		var k2 sqltypes.Value
		if rng.Intn(8) == 0 {
			k2 = sqltypes.Null()
		} else {
			k2 = sqltypes.NewText(words[rng.Intn(len(words))])
		}
		db.Table("U").Append(sqltypes.Row{mixed(), k2, sqltypes.NewInt(int64(rng.Intn(7)))})
	}
	return db
}

// TestRandomizedPredicateParity is the property-based harness for the new
// access paths: hundreds of randomized single-table queries — random range
// predicates over mixed-kind columns with NULLs, random ORDER BY
// direction, LIMIT and OFFSET — must produce bit-identical relations
// through the indexed, index-free, and nested-loop executors. Any
// divergence between a sorted-index span (or streamed ordering) and the
// scan-and-sort semantics shows up as a failing SQL string that reproduces
// with the fixed seed. The query corpus lives in internal/sqlgen, shared
// with the front-end differential suite.
func TestRandomizedPredicateParity(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(sqlgen.SingleTableSeed)))
	for _, q := range sqlgen.SingleTableQueries(sqlgen.SingleTableSeed, sqlgen.SingleTableCount) {
		runBoth(t, db, q)
	}
}

// TestRandomizedJoinParity stresses composite-key equi-joins with
// randomized residual predicates: the multi-key build side served by the
// table's two-column hash index must match the per-execution hash table and the nested
// loop, row for row, across NULL keys and mixed-kind key columns.
func TestRandomizedJoinParity(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(sqlgen.JoinSeed)))
	for _, q := range sqlgen.JoinQueries(sqlgen.JoinSeed, sqlgen.JoinCount) {
		runBoth(t, db, q)
	}
}
