package sqleval

import (
	"math"

	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// This file holds the per-execution memo of uncorrelated subqueries. The
// compiler (compileSubquery) gives every IN, EXISTS and scalar subquery
// that reads nothing from an enclosing query a slot; the first evaluation
// in an execution runs the subquery and folds its result into the slot,
// and every later evaluation — for the remaining outer rows, and across
// the per-row re-runs of a correlated subquery enclosing it — reads the
// slot instead of running the subquery again. Correlated subqueries keep
// running once per outer row.

// subMemo is one uncorrelated subquery's result within one execution. val
// holds a scalar subquery's first cell (NULL when it returns no rows) or
// whether an EXISTS subquery returned any row; members holds an IN
// subquery's member set.
type subMemo struct {
	done    bool
	val     sqltypes.Value
	members memberSet
}

// memoized returns the slot of an uncorrelated subquery, running sub and
// folding its result in with fill on first use in this execution. A later
// use still checks the context, as runProgram's entry check does on the
// per-row path, so cancellation surfaces at the same outer row either way.
func (ex *Executor) memoized(ctx *rowCtx, sub *program, slot int, fill func(*subMemo, *sqltypes.Relation)) (*subMemo, error) {
	m := &ctx.memo[slot]
	if m.done {
		if err := ctx.qctx.Err(); err != nil {
			return nil, err
		}
		return m, nil
	}
	err := ex.runSub(ctx, sub, func(rel *sqltypes.Relation) { fill(m, rel) })
	if err != nil {
		return nil, err
	}
	m.done = true
	return m, nil
}

// runSub runs a subquery for the row context ctx and hands its result to
// read, after which the result is released: its rows are the last the
// execution's slab handed out, so the slab rewinds past them. read must
// copy out whatever it keeps.
func (ex *Executor) runSub(ctx *rowCtx, sub *program, read func(*sqltypes.Relation)) error {
	mark := ctx.slab.mark()
	rel, err := ex.runProgram(ctx.nested(), sub, ctx)
	if err != nil {
		return err
	}
	read(rel)
	ctx.slab.rewind(mark)
	return nil
}

func fillExists(m *subMemo, rel *sqltypes.Relation) { m.val = sqltypes.NewBool(rel.NumRows() > 0) }

func fillScalar(m *subMemo, rel *sqltypes.Relation) { m.val = scalarOf(rel) }

func fillMembers(m *subMemo, rel *sqltypes.Relation) {
	s := &m.members
	for _, row := range rel.Rows {
		if len(row) == 0 {
			continue
		}
		v := row[0]
		key, ok := v.AppendCompareKey(s.buf[:0])
		if !ok {
			s.sawNull = true
			continue
		}
		s.buf = key
		s.keys.Add(key)
		if v.IsNumeric() {
			s.numeric = true
			s.nan = s.nan || isNaN(v)
		}
	}
}

// scalarOf is a scalar subquery's value: its first cell, NULL when it
// returns no rows.
func scalarOf(rel *sqltypes.Relation) sqltypes.Value {
	if rel.NumRows() == 0 || rel.NumCols() == 0 {
		return sqltypes.Null()
	}
	return rel.Rows[0][0]
}

// memberSet is an IN subquery's members folded for hashed lookup under the
// = operator's equality (sqltypes.Compare): non-NULL members keyed by
// sqltypes.AppendCompareKey, plus what Compare equates beyond the keys. A
// NaN compares equal to every numeric value, so a NaN member matches every
// numeric probe and a NaN probe matches when any member is numeric.
// sawNull records a NULL member, which turns a miss into NULL. buf is the
// key scratch buffer, private to the execution that owns the memo.
type memberSet struct {
	keys    storage.Groups
	sawNull bool
	numeric bool
	nan     bool
	buf     []byte
}

// contains reports whether a non-NULL probe equals some member.
func (s *memberSet) contains(v sqltypes.Value) bool {
	if v.IsNumeric() && (s.nan || (s.numeric && isNaN(v))) {
		return true
	}
	key, _ := v.AppendCompareKey(s.buf[:0])
	s.buf = key
	return s.keys.Find(key) >= 0
}

func isNaN(v sqltypes.Value) bool {
	f, _ := v.AsFloat()
	return math.IsNaN(f)
}
