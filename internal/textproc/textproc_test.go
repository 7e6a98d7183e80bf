package textproc

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unsafe"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("How many flights, at 8:30, cost $12.5?")
	want := []string{"how", "many", "flights", "at", "8", "30", "cost", "12.5"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestTokenizeContractions(t *testing.T) {
	got := Tokenize("Iraq's don't")
	want := []string{"iraqs", "dont"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestContentTokensDropsStopwords(t *testing.T) {
	got := ContentTokens("Show the names of the countries")
	for _, tok := range got {
		if IsStopword(tok) {
			t.Fatalf("stopword survived: %q in %v", tok, got)
		}
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"flights": "flight", "cities": "city", "ranked": "rank",
		"running": "runn", "classes": "classe", "bus": "bus", "miss": "miss",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q want %q", in, got, want)
		}
	}
}

func TestCanonicalClasses(t *testing.T) {
	if Canonical("many") != "count" || Canonical("highest") != "max" || Canonical("above") != "greater" {
		t.Fatal("canonical classes broken")
	}
	if Canonical("flight") != "flight" {
		t.Fatal("unknown tokens must pass through")
	}
}

// phrased walks toks with PhraseAt, one idiom or token at a time.
func phrased(toks []string) []string {
	var out []string
	for i := 0; i < len(toks); {
		t, w := PhraseAt(toks, i)
		out = append(out, t)
		i += w
	}
	return out
}

func TestApplyPhrases(t *testing.T) {
	got := phrased([]string{"visits", "at", "least", "14"})
	want := []string{"visits", "greater", "14"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PhraseAt walk = %v", got)
	}
	got = phrased([]string{"how", "many", "pets"})
	if got[0] != "count" {
		t.Fatalf("how many -> %v", got)
	}
	// Matching is greedy from the left: "or more than" pairs "or more".
	if got := phrased([]string{"or", "more", "than"}); !reflect.DeepEqual(got, []string{"greater", "than"}) {
		t.Fatalf("or more than -> %v", got)
	}
}

// TestPhraseHeadsMatchPairs requires the head switch that guards the pair
// lookup to accept exactly the first tokens of phrasePairs.
func TestPhraseHeadsMatchPairs(t *testing.T) {
	heads := map[string]bool{}
	for pair := range phrasePairs {
		heads[pair[0]] = true
		if !phraseHead(pair[0]) {
			t.Errorf("phraseHead(%q) = false, but it starts %v", pair[0], pair)
		}
	}
	for _, tok := range []string{"at", "more", "greater", "larger", "bigger", "less", "fewer", "smaller", "lower", "how", "equal", "or", "up"} {
		if !heads[tok] {
			t.Errorf("phraseHead accepts %q, which starts no pair", tok)
		}
	}
	if len(heads) != 13 {
		t.Errorf("phrasePairs has %d heads; phraseHead lists 13", len(heads))
	}
}

func TestUnescape(t *testing.T) {
	var s Scratch
	for in, want := range map[string]string{
		"O''Brien": "O'Brien", "''''": "''", "'": "'", "plain": "plain", "": "",
	} {
		if got := s.Unescape(in, '\''); got != want {
			t.Errorf("Unescape(%q) = %q want %q", in, got, want)
		}
	}
}

func TestNumbers(t *testing.T) {
	got := Numbers("population over 80000 or 2.0 or 1.5")
	want := []string{"80000", "2", "1.5"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Numbers = %v", got)
	}
}

func TestJaccardAndRecall(t *testing.T) {
	a := []string{"x", "y"}
	b := []string{"y", "z"}
	if j := Jaccard(a, b); j != 1.0/3.0 {
		t.Fatalf("Jaccard = %v", j)
	}
	if r := Recall(a, b); r != 0.5 {
		t.Fatalf("Recall = %v", r)
	}
	if Jaccard(nil, nil) != 0 || Recall(nil, b) != 0 {
		t.Fatal("empty-input handling broken")
	}
}

func TestJaccardSymmetryProperty(t *testing.T) {
	f := func(a, b []string) bool { return Jaccard(a, b) == Jaccard(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecallBoundsProperty(t *testing.T) {
	f := func(a, b []string) bool {
		r := Recall(a, b)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecallSelfIsOne(t *testing.T) {
	f := func(a []string) bool {
		if len(a) == 0 {
			return true
		}
		return Recall(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTokenNumberQuirks pins the tokenizer's and Numbers' behaviour on
// edge cases. The verifier's features, and so its trained weights, depend
// on every one of these.
func TestTokenNumberQuirks(t *testing.T) {
	cases := []struct {
		text string
		toks []string
		nums []string
	}{
		{"nan", []string{"nan"}, []string{"NaN"}},
		{"inf", []string{"inf"}, []string{"+Inf"}},
		{"Infinity", []string{"infinity"}, []string{"+Inf"}},
		{"1e5", []string{"1e5"}, []string{"100000"}},
		{"0x1p4", []string{"0x1p4"}, []string{"16"}},
		{"007", []string{"007"}, []string{"7"}},
		{"1.50", []string{"1.50"}, []string{"1.5"}},
		{"1_000", []string{"1_000"}, []string{"1000"}},
		{"1e400", []string{"1e400"}, nil},
		// The minus sign is a boundary, so an exponent's sign splits it.
		{"1e-3", []string{"1e", "3"}, []string{"3"}},
		// A '.' joins a digit to a token that parses as a number so far.
		{"inf.5", []string{"inf.5"}, nil},
		{"3.5.5", []string{"3.5.5"}, nil},
		{"0x1.8p1", []string{"0x1", "8p1"}, nil},
		{"a.5", []string{"a", "5"}, []string{"5"}},
		// An apostrophe before a letter folds into the word.
		{"iraq's", []string{"iraqs"}, nil},
		{"1'e5", []string{"1e5"}, []string{"100000"}},
		{"5's", []string{"5s"}, nil},
		{"'a a'", []string{"a", "a"}, nil},
		// A Unicode digit is a token character but not a number.
		{"٣", []string{"٣"}, nil},
		// Lower-casing changes these runes' byte lengths: İ (2 bytes)
		// becomes i (1), the Kelvin sign (3) becomes k (1), Ⱥ (2) becomes
		// ⱥ (3).
		{"İstanbul", []string{"istanbul"}, nil},
		{"K2", []string{"k2"}, nil},
		{"Ⱥb 2.5", []string{"ⱥb", "2.5"}, []string{"2.5"}},
		// Invalid UTF-8 lowers to U+FFFD, a boundary.
		{"a\xffb", []string{"a", "b"}, nil},
	}
	for _, c := range cases {
		if got := Tokenize(c.text); !reflect.DeepEqual(got, c.toks) {
			t.Errorf("Tokenize(%q) = %q want %q", c.text, got, c.toks)
		}
		if got := Numbers(c.text); !reflect.DeepEqual(got, c.nums) {
			t.Errorf("Numbers(%q) = %q want %q", c.text, got, c.nums)
		}
	}
}

// FuzzNumbers checks that Numbers keeps exactly the tokens that
// strconv.ParseFloat accepts, in canonical form.
func FuzzNumbers(f *testing.F) {
	for _, s := range []string{"nan inf infinity", "1e5 0x1p4 007 1.50", "1e-3 inf.5", "iraq's ٣", "8:30 $12.5", "1_000 0x_1p4 1e400"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		var want []string
		for _, tok := range Tokenize(text) {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				continue
			}
			if v == float64(int64(v)) {
				want = append(want, strconv.FormatInt(int64(v), 10))
			} else {
				want = append(want, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		if got := Numbers(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Numbers(%q) = %q want %q", text, got, want)
		}
	})
}

// referenceTokenize is the straightforward tokenizer over
// []rune(strings.ToLower(text)), one strings.Builder per token: the
// oracle for both paths of Tokenize.
func referenceTokenize(text string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	runes := []rune(strings.ToLower(text))
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
			cur.WriteRune(r)
		case r == '.' && cur.Len() > 0 && i+1 < len(runes) && unicode.IsDigit(runes[i+1]):
			if _, err := strconv.ParseFloat(cur.String(), 64); err == nil {
				cur.WriteRune(r)
			} else {
				flush()
			}
		case r == '\'' && cur.Len() > 0 && i+1 < len(runes) && unicode.IsLetter(runes[i+1]):
		default:
			flush()
		}
	}
	flush()
	return toks
}

// FuzzTokenize checks both tokenizer paths, the ASCII byte scanner and
// the rune path, against the reference tokenizer, and a reused Scratch
// against a fresh one.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"How many flights, at 8:30, cost $12.5?", "Iraq's don't", "1e-3 inf.5 3.5.5 0x1.8p1",
		"İstanbul K Ⱥb ٣", "a\xffb", "SELECT T1.name FROM t WHERE x = 'Airbus A340-300'",
	} {
		f.Add(s)
	}
	var reused Scratch
	f.Fuzz(func(t *testing.T, text string) {
		want := referenceTokenize(text)
		if got := Tokenize(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q want %q", text, got, want)
		}
		var runes Scratch
		if got := runes.appendTokensRunes(nil, text); !reflect.DeepEqual(got, want) {
			t.Fatalf("rune path(%q) = %q want %q", text, got, want)
		}
		reused.Reset()
		if got := reused.AppendTokens(nil, text); !reflect.DeepEqual(got, want) {
			t.Fatalf("reused Scratch(%q) = %q want %q", text, got, want)
		}
	})
}

func TestStemInScratchMatchesStem(t *testing.T) {
	var s Scratch
	for _, tok := range []string{"cities", "flights", "ranked", "running", "classes", "bus", "miss", "ies", "flies", ""} {
		if got, want := s.Stem(tok), Stem(tok); got != want {
			t.Errorf("Scratch.Stem(%q) = %q want %q", tok, got, want)
		}
	}
}

// JoinFields collapses whitespace exactly as strings.Fields splits it, and
// hands text that needs no change back as it is.
func TestJoinFields(t *testing.T) {
	for _, in := range []string{
		"", " ", "a", "a b", " a b", "a b ", "a  b", "a\tb", "a\n\nb ",
		"SELECT name FROM t WHERE name = 'Côte'", "Côte  d'Ivoire", "SELECT 'a\u00a0b'",
		"\xffa b", "\xff a\u0085b", "SELECT 'x\r\ny'",
	} {
		want := strings.Join(strings.Fields(in), " ")
		got := JoinFields(in)
		if got != want {
			t.Errorf("JoinFields(%q) = %q want %q", in, got, want)
		}
		if got == in && in != "" && unsafe.StringData(got) != unsafe.StringData(in) {
			t.Errorf("JoinFields(%q) copied text that needed no change", in)
		}
	}
}

// FuzzJoinFields checks JoinFields against strings.Join(strings.Fields(s),
// " ") and that text needing no change comes back without a copy.
func FuzzJoinFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "a b", "a\tb", "a\nb\n", "\va\fb\r", "x\u00a0y", "x\u0085y", " \u00a0 ",
		"Côte d'Ivoire", "\xff \xfe", "a \xc2", "SELECT  name\r\nFROM t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := JoinFields(s), strings.Join(strings.Fields(s), " ")
		if got != want {
			t.Fatalf("JoinFields(%q) = %q want %q", s, got, want)
		}
		if got == s && s != "" && unsafe.StringData(got) != unsafe.StringData(s) {
			t.Fatalf("JoinFields(%q) copied text that needed no change", s)
		}
	})
}
