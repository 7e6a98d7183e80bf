package sqltypes

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func rel(cols []string, rows ...Row) *Relation {
	r := NewRelation(cols...)
	for _, row := range rows {
		r.Append(row)
	}
	return r
}

func TestBagEqualOrderIrrelevant(t *testing.T) {
	a := rel([]string{"x"}, Row{NewInt(1)}, Row{NewInt(2)}, Row{NewInt(2)})
	b := rel([]string{"x"}, Row{NewInt(2)}, Row{NewInt(1)}, Row{NewInt(2)})
	if !BagEqual(a, b) {
		t.Fatal("order must be irrelevant")
	}
}

func TestBagEqualMultiplicityMatters(t *testing.T) {
	a := rel([]string{"x"}, Row{NewInt(1)}, Row{NewInt(2)})
	b := rel([]string{"x"}, Row{NewInt(1)}, Row{NewInt(1)})
	if BagEqual(a, b) {
		t.Fatal("multiplicity must matter")
	}
}

func TestBagEqualColumnNamesIgnored(t *testing.T) {
	a := rel([]string{"count(*)"}, Row{NewInt(2)})
	b := rel([]string{"count(id)"}, Row{NewInt(2)})
	if !BagEqual(a, b) {
		t.Fatal("column names must be ignored")
	}
}

func TestBagEqualNumericCoercion(t *testing.T) {
	a := rel([]string{"v"}, Row{NewInt(2)})
	b := rel([]string{"v"}, Row{NewFloat(2.0)})
	if !BagEqual(a, b) {
		t.Fatal("2 and 2.0 must be bag-equal")
	}
}

func TestBagEqualEmptyRelations(t *testing.T) {
	a := rel([]string{"x"})
	b := rel([]string{"y"})
	if !BagEqual(a, b) {
		t.Fatal("two empty relations are bag-equal")
	}
	if BagEqual(a, rel([]string{"x"}, Row{Null()})) {
		t.Fatal("empty vs non-empty must differ")
	}
}

func TestBagEqualNil(t *testing.T) {
	if BagEqual(nil, rel([]string{"x"})) || !BagEqual(nil, nil) {
		t.Fatal("nil handling broken")
	}
}

func TestColumnIndexQualified(t *testing.T) {
	r := rel([]string{"T1.name", "T2.aid"})
	if r.ColumnIndex("name") != 0 {
		t.Fatal("suffix match on bare name failed")
	}
	if r.ColumnIndex("T2.aid") != 1 {
		t.Fatal("exact match failed")
	}
	if r.ColumnIndex("NAME") != 0 {
		t.Fatal("case-insensitive suffix match failed")
	}
	if r.ColumnIndex("missing") != -1 {
		t.Fatal("missing column must return -1")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := rel([]string{"x"}, Row{NewInt(1)})
	c := r.Clone()
	c.Rows[0][0] = NewInt(99)
	c.Columns[0] = "y"
	if r.Rows[0][0].Int() != 1 || r.Columns[0] != "x" {
		t.Fatal("Clone must be deep")
	}
}

func TestRelationString(t *testing.T) {
	r := rel([]string{"name", "n"}, Row{NewText("Aruba"), NewInt(4)})
	s := r.String()
	if !strings.Contains(s, "Aruba") || !strings.Contains(s, "name") {
		t.Fatalf("render missing content:\n%s", s)
	}
}

// Property: BagEqual is invariant under random permutation.
func TestBagEqualPermutationProperty(t *testing.T) {
	f := func(seed int64, vals []int64) bool {
		a := NewRelation("v")
		for _, v := range vals {
			a.Append(Row{NewInt(v)})
		}
		b := a.Clone()
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(b.Rows), func(i, j int) { b.Rows[i], b.Rows[j] = b.Rows[j], b.Rows[i] })
		return BagEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mutating one element of a non-empty relation breaks bag equality
// unless the new value already appears with equal multiplicity structure.
func TestBagEqualMutationProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		a := NewRelation("v")
		seen := map[int64]bool{}
		for _, v := range vals {
			a.Append(Row{NewInt(v)})
			seen[v] = true
		}
		b := a.Clone()
		var replacement int64 = 1
		for seen[replacement] {
			replacement++
		}
		b.Rows[0][0] = NewInt(replacement)
		return !BagEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowKeyDistinguishesArity(t *testing.T) {
	a := Row{NewInt(1), NewInt(2)}
	b := Row{NewInt(1)}
	if string(a.AppendKey(nil)) == string(b.AppendKey(nil)) {
		t.Fatal("rows of different arity must not collide")
	}
}

func TestAppendCompareKeyCols(t *testing.T) {
	row := Row{NewInt(1), NewText("x"), NewFloat(2.0), Null()}
	key, ok := row.AppendCompareKeyCols(nil, []int{0, 2})
	if !ok {
		t.Fatal("non-NULL columns must encode")
	}
	same, ok := Row{NewFloat(1.0), NewText("y"), NewInt(2), Null()}.AppendCompareKeyCols(nil, []int{0, 2})
	if !ok || string(key) != string(same) {
		t.Fatal("Compare-equal column values must encode identically")
	}
	if _, ok := row.AppendCompareKeyCols(nil, []int{0, 3}); ok {
		t.Fatal("a NULL in any selected column must report ok=false")
	}
}
