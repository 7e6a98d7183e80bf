// Package stats defines the per-column statistics the cost-based planner
// consumes and the selectivity estimators it applies to them. The package
// is a pure leaf: it holds no state and knows nothing about storage — the
// numbers are derived by internal/storage from its secondary indexes
// (Database.ColStats), which is what gives them the index lifecycle for
// free (maintained on Insert, invalidated with the indexes on Mutate,
// snapshot/clone-isolated).
//
// The estimators make the textbook uniformity assumptions: equality
// selects NonNull/Distinct rows (every key holds an average-sized
// bucket), and a range over a numeric column selects the linear
// interpolation of its bounds inside the observed [Min, Max] span. Both
// are deliberate approximations — no histograms, no per-literal
// frequencies — chosen so the numbers fall out of structures the engine
// already maintains. Estimates are advisory: every plan the estimates
// pick must still produce bit-identical results (the planner only ever
// chooses among result-preserving lowerings), so a misestimate costs
// time, never correctness.
package stats

import "cyclesql/internal/sqltypes"

// Fallback selectivities for ranges the interpolator cannot measure
// (text bounds, all-NULL columns with no span). The values are the
// conventional System R defaults; what matters here is determinism, not
// precision — golden plan snapshots pin every estimate.
const (
	// OneSidedFraction is the assumed selectivity of a half-open range.
	OneSidedFraction = 1.0 / 3
	// TwoSidedFraction is the assumed selectivity of a both-bounded range.
	TwoSidedFraction = 1.0 / 9
)

// Column summarizes one column of one stored table.
type Column struct {
	// Rows is the table's total row count.
	Rows int
	// NonNull is how many rows hold a non-NULL value in the column.
	NonNull int
	// Distinct is the number of distinct non-NULL values. Zero means the
	// column holds no non-NULL values at all (empty table or all NULL) —
	// never "unknown"; Database.ColStats reports ok=false for unknown.
	Distinct int
	// HasBounds reports whether Min/Max describe a non-empty value span
	// (NonNull > 0). When false, Min and Max are NULL.
	HasBounds bool
	// Min and Max are the smallest and largest non-NULL values under the
	// sqltypes.Compare total order.
	Min, Max sqltypes.Value
}

// EqRows estimates how many rows satisfy column = literal: the average
// bucket size NonNull/Distinct under the uniform-frequency assumption.
// A column with no non-NULL values matches nothing.
func (c Column) EqRows() float64 {
	if c.Distinct == 0 {
		return 0
	}
	return float64(c.NonNull) / float64(c.Distinct)
}

// RangeRows estimates how many rows fall inside a range probe's bounds
// (nil bounds are unbounded on that side; inclusivity is ignored — the
// interpolation is continuous). Numeric bounds over a numeric [Min, Max]
// span interpolate linearly; everything else falls back to the fixed
// fractions above. NULL rows never satisfy a comparison, so the estimate
// scales NonNull, not Rows.
func (c Column) RangeRows(lo, hi *sqltypes.Value, loIncl, hiIncl bool) float64 {
	_ = loIncl
	_ = hiIncl
	if c.NonNull == 0 {
		return 0
	}
	if frac, ok := c.interpolate(lo, hi); ok {
		return float64(c.NonNull) * frac
	}
	frac := OneSidedFraction
	if lo != nil && hi != nil {
		frac = TwoSidedFraction
	}
	return float64(c.NonNull) * frac
}

// interpolate computes the covered fraction of the [Min, Max] span when
// the span and every present bound are numeric.
func (c Column) interpolate(lo, hi *sqltypes.Value) (float64, bool) {
	if !c.HasBounds || !c.Min.IsNumeric() || !c.Max.IsNumeric() {
		return 0, false
	}
	minF, _ := c.Min.AsFloat()
	maxF, _ := c.Max.AsFloat()
	loF, hiF := minF, maxF
	if lo != nil {
		if !lo.IsNumeric() {
			return 0, false
		}
		loF, _ = lo.AsFloat()
	}
	if hi != nil {
		if !hi.IsNumeric() {
			return 0, false
		}
		hiF, _ = hi.AsFloat()
	}
	loF = max(loF, minF)
	hiF = min(hiF, maxF)
	if hiF < loF {
		return 0, true
	}
	width := maxF - minF
	if width <= 0 {
		// Single-valued span: the clamp above already decided membership.
		return 1, true
	}
	return (hiF - loF) / width, true
}
