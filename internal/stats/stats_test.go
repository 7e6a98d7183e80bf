package stats

import (
	"testing"

	"cyclesql/internal/sqltypes"
)

func numCol(rows, nonNull, distinct int, minV, maxV float64) Column {
	return Column{
		Rows: rows, NonNull: nonNull, Distinct: distinct,
		HasBounds: nonNull > 0,
		Min:       sqltypes.NewFloat(minV), Max: sqltypes.NewFloat(maxV),
	}
}

func TestEqRows(t *testing.T) {
	c := numCol(1000, 900, 9, 0, 100)
	if got := c.EqRows(); got != 100 {
		t.Fatalf("EqRows = %v, want 100 (NonNull/Distinct)", got)
	}
	// No non-NULL values: equality matches nothing, and the estimator must
	// not divide by zero.
	empty := Column{Rows: 50}
	if got := empty.EqRows(); got != 0 {
		t.Fatalf("EqRows on an all-NULL column = %v, want 0", got)
	}
}

func TestRangeRowsInterpolation(t *testing.T) {
	c := numCol(1000, 1000, 1000, 0, 100)
	lo := sqltypes.NewInt(90)
	if got := c.RangeRows(&lo, nil, false, false); got != 100 {
		t.Fatalf("one-sided interpolation = %v, want 100", got)
	}
	hi := sqltypes.NewInt(95)
	if got := c.RangeRows(&lo, &hi, true, true); got != 50 {
		t.Fatalf("two-sided interpolation = %v, want 50", got)
	}
	// Bounds outside the span clamp: a range past Max selects nothing.
	past := sqltypes.NewInt(200)
	if got := c.RangeRows(&past, nil, false, false); got != 0 {
		t.Fatalf("range past Max = %v, want 0", got)
	}
	// A range covering the whole span selects everything, NULLs excluded.
	wide := Column{Rows: 100, NonNull: 80, Distinct: 40, HasBounds: true,
		Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(10)}
	all := sqltypes.NewInt(-5)
	if got := wide.RangeRows(&all, nil, false, false); got != 80 {
		t.Fatalf("covering range = %v, want NonNull=80", got)
	}
}

func TestRangeRowsFallback(t *testing.T) {
	// Text bounds cannot interpolate; the fixed fractions apply.
	c := Column{Rows: 90, NonNull: 90, Distinct: 3, HasBounds: true,
		Min: sqltypes.NewText("a"), Max: sqltypes.NewText("z")}
	lo := sqltypes.NewText("m")
	if got := c.RangeRows(&lo, nil, false, false); got != 30 {
		t.Fatalf("one-sided fallback = %v, want 90*1/3", got)
	}
	hi := sqltypes.NewText("p")
	if got := c.RangeRows(&lo, &hi, true, true); got != 10 {
		t.Fatalf("two-sided fallback = %v, want 90*1/9", got)
	}
	if got := c.RangeRows(nil, nil, false, false); got != 30 {
		t.Fatalf("unbounded fallback = %v, want the one-sided fraction", got)
	}
}

func TestRangeRowsDegenerateSpan(t *testing.T) {
	// Every value identical: membership is decided by the clamp alone.
	c := numCol(10, 10, 1, 7, 7)
	lo, hi := sqltypes.NewInt(0), sqltypes.NewInt(100)
	if got := c.RangeRows(&lo, &hi, true, true); got != 10 {
		t.Fatalf("covering degenerate span = %v, want 10", got)
	}
	above := sqltypes.NewInt(8)
	if got := c.RangeRows(&above, nil, true, true); got != 0 {
		t.Fatalf("range above degenerate span = %v, want 0", got)
	}
	if got := c.RangeRows(nil, nil, false, false); got != 10 {
		t.Fatalf("unbounded over degenerate span = %v, want 10", got)
	}
}
