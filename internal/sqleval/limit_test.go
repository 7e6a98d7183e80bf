package sqleval

import (
	"math/rand"
	"testing"

	"cyclesql/internal/sqlgen"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// These tests pin LIMIT on the push path — the sink stops the scan or the
// join pipeline once it holds OFFSET+LIMIT records — and ORDER BY and LIMIT
// after a compound query, which apply to the combined result.

// limitParity runs sql with LIMIT k, for k in {0, 1, 3}, on every plan leg
// (runBoth) and requires exactly the first k rows of its run without a
// limit. Only statements whose cores have no ORDER BY, DISTINCT, grouping,
// LIMIT or OFFSET qualify, since only there the first rows in push order
// are the ones LIMIT keeps; it reports whether sql qualified.
func limitParity(t *testing.T, db *storage.Database, sql string) bool {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	for _, core := range stmt.Cores {
		if len(core.OrderBy) > 0 || core.Distinct || len(core.GroupBy) > 0 || core.HasAggregate() ||
			core.Limit != nil || core.Offset != nil {
			return false
		}
	}
	full := runBoth(t, db, sql)
	for _, k := range []int64{0, 1, 3} {
		limited := stmt.Clone()
		limited.Cores[len(limited.Cores)-1].Limit = &k
		got := runBoth(t, db, limited.SQL())
		want := &sqltypes.Relation{Columns: full.Columns, Rows: full.Rows[:min(int(k), len(full.Rows))]}
		if !relEqual(got, want) {
			t.Fatalf("%s: got\n%s\nwant the first %d rows of the unlimited run:\n%s", limited.SQL(), got, k, want)
		}
	}
	return true
}

// TestLimitParitySQLGen applies limitParity to the randomized single-table
// and join corpora.
func TestLimitParitySQLGen(t *testing.T) {
	checked := 0
	for _, c := range []struct {
		db      *storage.Database
		queries []string
	}{
		{randomDB(t, rand.New(rand.NewSource(sqlgen.SingleTableSeed))), sqlgen.SingleTableQueries(sqlgen.SingleTableSeed, sqlgen.SingleTableCount)},
		{randomDB(t, rand.New(rand.NewSource(sqlgen.JoinSeed))), sqlgen.JoinQueries(sqlgen.JoinSeed, sqlgen.JoinCount)},
	} {
		for _, q := range c.queries {
			if limitParity(t, c.db, q) {
				checked++
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d sqlgen queries qualified for the LIMIT parity check", checked)
	}
	t.Logf("checked %d sqlgen queries", checked)
}

// TestCompoundOrderLimit pins ORDER BY and LIMIT after a compound query to
// the whole compound, as SQLite applies them, although the parser attaches
// them to the last core. ORDER BY terms resolve against the output
// columns.
func TestCompoundOrderLimit(t *testing.T) {
	txt := sqltypes.NewText
	db := flightDB(t)
	for _, tc := range []struct {
		sql  string
		want [][]sqltypes.Value
	}{
		{"SELECT origin FROM flight UNION SELECT destination FROM flight LIMIT 2",
			[][]sqltypes.Value{{txt("Los Angeles")}, {txt("Chicago")}}},
		{"SELECT origin FROM flight UNION SELECT destination FROM flight ORDER BY origin DESC LIMIT 2",
			[][]sqltypes.Value{{txt("Washington D.C.")}, {txt("Tokyo")}}},
		{"SELECT origin FROM flight UNION SELECT destination FROM flight ORDER BY 1 LIMIT 2 OFFSET 1",
			[][]sqltypes.Value{{txt("Chicago")}, {txt("Dallas")}}},
		{"SELECT T1.origin FROM flight AS T1 UNION SELECT destination FROM flight ORDER BY origin LIMIT 1",
			[][]sqltypes.Value{{txt("Boston")}}},
		{"SELECT origin AS city FROM flight INTERSECT SELECT destination FROM flight ORDER BY city DESC",
			[][]sqltypes.Value{{txt("Los Angeles")}, {txt("Chicago")}}},
		// The stop must not fire on the last core: cutting the right side
		// to one row would keep Los Angeles in the difference.
		{"SELECT origin FROM flight EXCEPT SELECT destination FROM flight LIMIT 1",
			nil},
		{"SELECT origin FROM flight UNION ALL SELECT destination FROM flight WHERE destination = 'Tokyo' ORDER BY origin DESC LIMIT 3",
			[][]sqltypes.Value{{txt("Tokyo")}, {txt("Los Angeles")}, {txt("Los Angeles")}}},
	} {
		t.Run(tc.sql, func(t *testing.T) {
			wantRows(t, tc.sql, runBoth(t, db, tc.sql), tc.want)
		})
	}
	for _, sql := range []string{
		"SELECT origin FROM flight UNION SELECT destination FROM flight",
		"SELECT origin FROM flight UNION ALL SELECT destination FROM flight",
		"SELECT origin FROM flight EXCEPT SELECT destination FROM flight WHERE destination = 'Tokyo'",
	} {
		if !limitParity(t, db, sql) {
			t.Fatalf("%q must qualify for the LIMIT parity check", sql)
		}
	}
}

// TestCompoundOrderByUnmatched pins SQLite's errors for a compound ORDER BY
// term that names no output column.
func TestCompoundOrderByUnmatched(t *testing.T) {
	db := flightDB(t)
	for sql, want := range map[string]string{
		"SELECT origin FROM flight UNION SELECT destination FROM flight ORDER BY flno": "sqleval: ORDER BY term flno does not match any column in the result set",
		"SELECT origin FROM flight UNION SELECT destination FROM flight ORDER BY 2":    "sqleval: ORDER BY term out of range - should be between 1 and 1",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(db).ExecContext(t.Context(), stmt); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", sql, err, want)
		}
	}
}
