package sqltypes

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func compareKey(t *testing.T, v Value) string {
	t.Helper()
	key, ok := v.AppendCompareKey(nil)
	if !ok {
		t.Fatalf("AppendCompareKey(%v) reported NULL", v)
	}
	return string(key)
}

func TestAppendCompareKeyMatchesCompare(t *testing.T) {
	pairs := []struct {
		a, b Value
	}{
		{NewInt(3), NewFloat(3.0)},
		{NewInt(0), NewFloat(-0.0)},
		{NewFloat(2.5), NewFloat(2.5)},
		{NewText("x"), NewText("x")},
		// Beyond 2^53 Compare conflates as float64; the encoding must too.
		{NewInt(1_000_000_000_000_000), NewFloat(1e15)},
	}
	for _, p := range pairs {
		if Compare(p.a, p.b) != 0 {
			t.Fatalf("test setup: %v and %v must Compare equal", p.a, p.b)
		}
		if compareKey(t, p.a) != compareKey(t, p.b) {
			t.Errorf("Compare-equal values %v and %v encode differently", p.a, p.b)
		}
	}
	distinct := []struct {
		a, b Value
	}{
		{NewInt(3), NewInt(4)},
		{NewText("3"), NewInt(3)}, // text never equals numeric under Compare
		{NewText("a"), NewText("A")},
		{NewFloat(2.5), NewInt(2)},
	}
	for _, p := range distinct {
		if Compare(p.a, p.b) == 0 {
			t.Fatalf("test setup: %v and %v must Compare unequal", p.a, p.b)
		}
		if compareKey(t, p.a) == compareKey(t, p.b) {
			t.Errorf("Compare-unequal values %v and %v encode identically", p.a, p.b)
		}
	}
}

func TestAppendCompareKeyTextReusesAppendKey(t *testing.T) {
	v := NewText("hello")
	if compareKey(t, v) != string(v.AppendKey(nil)) {
		t.Error("text AppendCompareKey must reuse the AppendKey encoding")
	}
}

func TestAppendCompareKeyNull(t *testing.T) {
	if _, ok := Null().AppendCompareKey(nil); ok {
		t.Error("NULL must report ok=false")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() must be null")
	}
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Fatalf("NewInt: got %v kind %v", v, v.Kind())
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Fatalf("NewFloat: got %v", v)
	}
	if v := NewText("abc"); v.Kind() != KindText || v.Text() != "abc" {
		t.Fatalf("NewText: got %v", v)
	}
	if NewBool(true).Int() != 1 || NewBool(false).Int() != 0 {
		t.Fatal("NewBool must map onto 1/0")
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
}

func TestValueAsFloat(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{NewInt(3), 3, true},
		{NewFloat(1.5), 1.5, true},
		{NewText("2.25"), 2.25, true},
		{NewText(" 7 "), 7, true},
		{NewText("abc"), 0, false},
		{Null(), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsFloat()
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("AsFloat(%v) = %v,%v want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestValueTruthy(t *testing.T) {
	if Null().Truthy() || NewInt(0).Truthy() || NewFloat(0).Truthy() || NewText("").Truthy() {
		t.Fatal("falsy values reported truthy")
	}
	if !NewInt(1).Truthy() || !NewFloat(0.5).Truthy() || !NewText("x").Truthy() {
		t.Fatal("truthy values reported falsy")
	}
}

func TestCompareOrdering(t *testing.T) {
	// NULL < numbers < text; numbers compare across int/float.
	ordered := []Value{Null(), NewInt(-5), NewFloat(-1.5), NewInt(0), NewFloat(0.5), NewInt(3), NewText("a"), NewText("b")}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(NewInt(2), NewFloat(2.0)) != 0 {
		t.Fatal("2 must equal 2.0")
	}
	if Compare(NewFloat(1.9), NewInt(2)) != -1 {
		t.Fatal("1.9 < 2")
	}
}

// bagKey is v's bag key as a string.
func bagKey(v Value) string { return string(v.AppendKey(nil)) }

func TestKeyCollapsesIntegralFloats(t *testing.T) {
	if bagKey(NewInt(2)) != bagKey(NewFloat(2.0)) {
		t.Fatal("2 and 2.0 must share a bag key")
	}
	if bagKey(NewInt(2)) == bagKey(NewText("2")) {
		t.Fatal("numeric 2 and text '2' must not share a bag key")
	}
	if bagKey(NewFloat(2.5)) == bagKey(NewFloat(2.0)) {
		t.Fatal("distinct floats must not collide")
	}
}

func TestSQLLiteralEscaping(t *testing.T) {
	if got := NewText("O'Brien").SQLLiteral(); got != "'O''Brien'" {
		t.Fatalf("SQLLiteral = %q", got)
	}
	if got := NewInt(7).SQLLiteral(); got != "7" {
		t.Fatalf("int literal = %q", got)
	}
	if got := Null().SQLLiteral(); got != "NULL" {
		t.Fatalf("null literal = %q", got)
	}
}

func TestParseLiteral(t *testing.T) {
	if v := ParseLiteral("42", false); v.Kind() != KindInt || v.Int() != 42 {
		t.Fatalf("ParseLiteral(42) = %v", v)
	}
	if v := ParseLiteral("4.5", false); v.Kind() != KindFloat {
		t.Fatalf("ParseLiteral(4.5) = %v", v)
	}
	if v := ParseLiteral("null", false); !v.IsNull() {
		t.Fatalf("ParseLiteral(null) = %v", v)
	}
	if v := ParseLiteral("42", true); v.Kind() != KindText {
		t.Fatalf("quoted literal must stay text, got %v", v)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindNull: "NULL", KindInt: "INTEGER", KindFloat: "REAL", KindText: "TEXT"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q want %q", k, k.String(), want)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equal.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return Compare(va, vb) == -Compare(vb, va) && (Compare(va, vb) == 0) == Equal(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bag-key equality matches Compare equality for numeric values.
func TestKeyConsistentWithCompareProperty(t *testing.T) {
	f := func(a int64, b int64) bool {
		va, vb := NewInt(a), NewFloat(float64(b))
		return (bagKey(va) == bagKey(vb)) == (Compare(va, vb) == 0) || float64(b) != float64(int64(float64(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestValueSize pins the 32-byte layout: a REAL shares the INTEGER
// payload word, so every stored row and record is a fifth smaller than
// with a separate float64 field.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestFloatEdgeValues pins the REAL edge cases through every accessor and
// encoding. The expected outputs are those of the layout with a separate
// float64 field, so storing a REAL as its bits changes no answer.
func TestFloatEdgeValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name   string
		f      float64
		bits   uint64
		truthy bool
		str    string
		key    string // AppendKey, hex
		ckey   string // AppendCompareKey, hex
		// Compare against 0.0, INTEGER 0, itself and -0.0.
		cmpZero, cmpInt0, cmpSelf, cmpNegZero int
	}{
		{"-0.0", negZero, 0x8000000000000000, false, "-0", "010000000000000000", "010000000000000000", 0, 0, 0, 0},
		{"+Inf", math.Inf(1), 0x7ff0000000000000, true, "+Inf", "027ff0000000000000", "017ff0000000000000", 1, 1, 0, 1},
		{"-Inf", math.Inf(-1), 0xfff0000000000000, true, "-Inf", "02fff0000000000000", "01fff0000000000000", -1, -1, 0, -1},
		{"NaN", math.NaN(), 0x7ff8000000000001, true, "NaN", "027ff8000000000001", "017ff8000000000001", 0, 0, 0, 0},
		{"smallest subnormal", math.SmallestNonzeroFloat64, 0x1, true, "5e-324", "020000000000000001", "010000000000000001", 1, 1, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := NewFloat(c.f)
			if v.Kind() != KindFloat {
				t.Fatalf("kind %v", v.Kind())
			}
			if got := math.Float64bits(v.Float()); got != c.bits {
				t.Errorf("Float bits %#x, want %#x", got, c.bits)
			}
			if f, ok := v.AsFloat(); !ok || math.Float64bits(f) != c.bits {
				t.Errorf("AsFloat = %v,%v, want bits %#x", f, ok, c.bits)
			}
			if v.Truthy() != c.truthy {
				t.Errorf("Truthy = %v, want %v", v.Truthy(), c.truthy)
			}
			if v.String() != c.str || string(v.AppendString(nil)) != c.str || v.SQLLiteral() != c.str {
				t.Errorf("String = %q, AppendString = %q, SQLLiteral = %q, want %q", v.String(), v.AppendString(nil), v.SQLLiteral(), c.str)
			}
			if got := fmt.Sprintf("%x", v.AppendKey(nil)); got != c.key {
				t.Errorf("AppendKey = %s, want %s", got, c.key)
			}
			ck, ok := v.AppendCompareKey(nil)
			if got := fmt.Sprintf("%x", ck); !ok || got != c.ckey {
				t.Errorf("AppendCompareKey = %s,%v, want %s", got, ok, c.ckey)
			}
			for _, cmp := range []struct {
				other Value
				want  int
			}{{NewFloat(0), c.cmpZero}, {NewInt(0), c.cmpInt0}, {v, c.cmpSelf}, {NewFloat(negZero), c.cmpNegZero}, {NewText("a"), -1}, {Null(), 1}} {
				if got := Compare(v, cmp.other); got != cmp.want {
					t.Errorf("Compare(%v, %v) = %d, want %d", v, cmp.other, got, cmp.want)
				}
			}
		})
	}
}
