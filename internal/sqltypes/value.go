// Package sqltypes defines the value and relation model shared by every
// layer of the system: the storage engine, the SQL executor, the provenance
// tracker, and the evaluation metrics.
//
// Values are dynamically typed (NULL, INTEGER, REAL, TEXT) with SQLite-like
// comparison semantics: numeric values compare numerically across the
// INTEGER/REAL divide, and NULL never compares equal to anything, including
// itself, except under the IS operator.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind int

// The value kinds, in SQLite affinity order.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single dynamically typed SQL value. The zero value is NULL.
// An INTEGER's payload and a REAL's IEEE-754 bits share i, so a Value is
// 32 bytes. Struct equality therefore compares a REAL's bits: -0.0 and
// +0.0 differ and NaN equals itself; Compare is the SQL ordering.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a REAL value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{kind: KindText, s: v} }

// NewBool returns the SQL encoding of a boolean: INTEGER 1 or 0.
func NewBool(v bool) Value {
	if v {
		return NewInt(1)
	}
	return NewInt(0)
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the NULL value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether v is INTEGER or REAL.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Int returns the integer payload. It is only meaningful for KindInt.
func (v Value) Int() int64 { return v.i }

// Float returns the real payload. It is only meaningful for KindFloat.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.i)) }

// Text returns the text payload. It is only meaningful for KindText.
func (v Value) Text() string { return v.s }

// AsFloat coerces a numeric value to float64. Text that parses as a number
// is coerced too, mirroring SQLite's numeric affinity on comparisons.
// The second result reports whether the coercion succeeded.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.Float(), true
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// Truthy reports whether v is true in a WHERE context: non-NULL and nonzero.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.Float() != 0
	case KindText:
		return v.s != ""
	default:
		return false
	}
}

// String renders v for display: NULL, bare numbers, or unquoted text.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindText:
		return v.s
	default:
		return "?"
	}
}

// AppendString appends String's rendering of v to dst.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case KindText:
		return append(dst, v.s...)
	default:
		return append(dst, '?')
	}
}

// SQLLiteral renders v as a SQL literal (text quoted and escaped).
func (v Value) SQLLiteral() string {
	if v.kind == KindText {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// AppendSQLLiteral appends SQLLiteral's exact rendering to dst without
// materializing intermediate strings; it is the literal path of sqlast's
// renderer, in both its verbatim and its canonical form.
func (v Value) AppendSQLLiteral(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case KindText:
		dst = append(dst, '\'')
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			if c == '\'' {
				dst = append(dst, '\'', '\'')
			} else {
				dst = append(dst, c)
			}
		}
		return append(dst, '\'')
	default:
		return append(dst, '?')
	}
}

// AppendKey appends v's bag key — the encoding DISTINCT, GROUP BY, set
// operations and bag comparison group values by — to dst and returns the
// extended slice. Two values share a key when they have the same kind and
// value, and integral REAL values (below 1e15 in magnitude) encode as
// their INTEGER, so count(*) = 2 and 2.0 share a key, matching the Spider
// evaluation script; numeric 2 and text '2' do not. Text is
// length-prefixed, so multi-value keys cannot collide across value
// boundaries. Callers reuse one scratch buffer and probe maps with
// string(buf), which Go compiles without a copy.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindInt:
		return appendKeyInt(dst, v.i)
	case KindFloat:
		if f := v.Float(); f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e15 {
			return appendKeyInt(dst, int64(f))
		}
		bits := uint64(v.i)
		return append(dst, 0x02,
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
	case KindText:
		dst = append(dst, 0x03)
		dst = appendKeyLen(dst, len(v.s))
		return append(dst, v.s...)
	default:
		return append(dst, 0xff)
	}
}

// AppendCompareKey appends an encoding under which two values encode
// identically exactly when Compare orders them equal — the = operator's
// notion of equality. Numerics encode as normalized float64 bits (they
// compare as float64 across the INTEGER/REAL divide, including beyond
// 2^53, where Compare itself conflates distinct int64s) and text reuses
// the AppendKey length-prefixed encoding. NULL reports ok=false instead of
// encoding: every caller — equi-join matching, secondary-index buckets and
// probes — is NULL-rejecting, so NULL rows index nowhere and a NULL key
// matches nothing.
func (v Value) AppendCompareKey(dst []byte) ([]byte, bool) {
	switch {
	case v.IsNull():
		return dst, false
	case v.IsNumeric():
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // collapse -0.0 onto +0.0, as Compare does
		}
		bits := math.Float64bits(f)
		return append(dst, 0x01,
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits)), true
	default:
		return v.AppendKey(dst), true
	}
}

func appendKeyInt(dst []byte, i int64) []byte {
	u := uint64(i)
	return append(dst, 0x01,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// appendKeyLen is an unsigned varint: 7 bits per byte, high bit = continue.
func appendKeyLen(dst []byte, n int) []byte {
	u := uint(n)
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// Compare orders a before b and returns -1, 0, or +1. NULL sorts first;
// numbers sort before text; numbers compare numerically across kinds.
// Comparison under SQL tri-state semantics (where NULL yields NULL) is
// handled by the expression evaluator, not here: Compare is a total order
// used for ORDER BY, MIN/MAX and bag equality.
func Compare(a, b Value) int {
	ra, rb := a.rank(), b.rank()
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // both numeric
		fa, _ := a.AsFloat()
		fb, _ := b.AsFloat()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	default: // both text
		return strings.Compare(a.s, b.s)
	}
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// Equal reports total-order equality of two values (NULL equals NULL here;
// tri-state equality lives in the evaluator).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// ParseLiteral converts a SQL literal token text into a Value. Quoted
// strings should be passed without their quotes.
func ParseLiteral(text string, quoted bool) Value {
	if quoted {
		return NewText(text)
	}
	if strings.EqualFold(text, "null") {
		return Null()
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return NewFloat(f)
	}
	return NewText(text)
}
