package sqltypes

import "strings"

// Row is a single tuple of values.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// AppendKey appends the bag key (Value.AppendKey) of every value in the
// row to dst: reuse one scratch buffer across rows and probe maps with
// string(buf).
func (r Row) AppendKey(dst []byte) []byte {
	for _, v := range r {
		dst = v.AppendKey(dst)
	}
	return dst
}

// AppendCompareKeyCols appends the Compare-consistent encoding (see
// Value.AppendCompareKey) of the selected columns to dst. It reports
// ok=false — leaving dst in an unspecified partial state — when any
// selected value is NULL: equi-join matching and index probes treat such
// rows as matching nothing.
func (r Row) AppendCompareKeyCols(dst []byte, cols []int) (key []byte, ok bool) {
	for _, c := range cols {
		var vok bool
		if dst, vok = r[c].AppendCompareKey(dst); !vok {
			return dst, false
		}
	}
	return dst, true
}

// Relation is a materialized query result or intermediate table: an ordered
// list of column names plus rows.
type Relation struct {
	Columns []string
	Rows    []Row
}

// NewRelation returns an empty relation with the given column names.
func NewRelation(columns ...string) *Relation {
	return &Relation{Columns: columns}
}

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return len(r.Rows) }

// NumCols returns the number of columns.
func (r *Relation) NumCols() int { return len(r.Columns) }

// Append adds a row. The row length must match the column count; mismatches
// indicate executor bugs and are tolerated only for the empty relation.
func (r *Relation) Append(row Row) { r.Rows = append(r.Rows, row) }

// ColumnIndex returns the index of the named column, or -1. The match is
// case-insensitive and tolerates qualified spellings ("t.c" matches "c").
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	// Fall back to suffix matching for qualified names in either direction.
	want := strings.ToLower(name)
	for i, c := range r.Columns {
		have := strings.ToLower(c)
		if strings.HasSuffix(have, "."+want) || strings.HasSuffix(want, "."+have) {
			return i
		}
	}
	return -1
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{Columns: append([]string(nil), r.Columns...)}
	out.Rows = make([]Row, len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i] = row.Clone()
	}
	return out
}

// BagEqual reports whether two relations contain the same multiset of rows,
// ignoring row order and column names. This is the Spider execution-accuracy
// criterion ("bag semantics, order irrelevant").
func BagEqual(a, b *Relation) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	if len(a.Rows) == 0 {
		return len(a.Columns) == len(b.Columns) || true
	}
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	counts := make(map[string]int, len(a.Rows))
	var buf []byte
	for _, row := range a.Rows {
		buf = row.AppendKey(buf[:0])
		counts[string(buf)]++
	}
	for _, row := range b.Rows {
		buf = row.AppendKey(buf[:0])
		k := counts[string(buf)] - 1
		if k < 0 {
			return false
		}
		counts[string(buf)] = k
	}
	return true
}

// String renders the relation as an aligned text table for CLIs and tests.
func (r *Relation) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(parts []string) {
		for i, p := range parts {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(p)
			if i < len(widths) {
				for pad := len(p); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
