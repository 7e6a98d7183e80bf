// Package textproc supplies the lightweight NLP primitives the NLI
// verifier and the user-study simulator build on: tokenization, a small
// suffix stemmer, stopword filtering, number extraction, and synonym
// canonicalization for SQL-flavored vocabulary ("how many" ~ "count").
package textproc

import (
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// JoinFields returns strings.Join(strings.Fields(s), " "): whitespace runs
// collapse to one space and the ends are trimmed. Text that is already so
// comes back as it is, without a copy. ASCII bytes are classified by
// table; only a non-ASCII rune is decoded, since U+0085 and U+00A0 are
// spaces too.
func JoinFields(s string) string {
	space := true
	for i := 0; i < len(s); {
		c := s[i]
		var isSpace bool
		if c < utf8.RuneSelf {
			isSpace = asciiSpace[c]
			i++
		} else {
			r, n := utf8.DecodeRuneInString(s[i:])
			isSpace = unicode.IsSpace(r)
			i += n
		}
		if !isSpace {
			space = false
			continue
		}
		if space || c != ' ' {
			return strings.Join(strings.Fields(s), " ")
		}
		space = true
	}
	if space && s != "" {
		return strings.Join(strings.Fields(s), " ")
	}
	return s
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Tokenize lower-cases and splits text into word and number tokens,
// treating punctuation as boundaries but keeping decimal numbers intact.
func Tokenize(text string) []string {
	// A Scratch that is never reset: the tokens own its arena.
	var s Scratch
	return s.AppendTokens(nil, text)
}

// Scratch is reusable memory for allocation-free tokenization. Tokens
// and numbers produced through a Scratch are views into its arena: they
// stay valid until the next Reset, and must not be kept past it. The zero
// value is ready to use; a Scratch must not be used by two goroutines at
// once.
type Scratch struct {
	arena []byte
}

// Reset forgets every token produced so far, so their memory is reused.
func (s *Scratch) Reset() { s.arena = s.arena[:0] }

// view returns the arena bytes from start on as a string sharing their
// memory. The bytes are never written again before Reset, so the string
// stays immutable for as long as the Scratch contract lets it live.
func (s *Scratch) view(start int) string {
	b := s.arena[start:]
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// ASCII character classes of the tokenizer, matching unicode.IsLetter and
// unicode.IsDigit on bytes below utf8.RuneSelf.
const (
	classLetter = 1 << iota
	classDigit
	classWord // letter, digit or '_'
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			t[c] = classLetter | classWord
		case '0' <= c && c <= '9':
			t[c] = classDigit | classWord
		case c == '_':
			t[c] = classWord
		}
	}
	return t
}()

// AppendTokens appends Tokenize(text) to dst, writing the lower-cased
// token bytes into s. ASCII text is scanned byte by byte through a class
// table; text with any byte >= utf8.RuneSelf takes the rune path, which
// lower-cases and classifies each rune as unicode does.
func (s *Scratch) AppendTokens(dst []string, text string) []string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return s.appendTokensRunes(dst, text)
		}
	}
	start := len(s.arena)
	for i := 0; i < len(text); i++ {
		c := text[i]
		cls := asciiClass[c]
		switch {
		case cls&classWord != 0:
			if cls&classLetter != 0 {
				c |= 0x20 // lower case
			}
			s.arena = append(s.arena, c)
		case c == '.' && len(s.arena) > start && i+1 < len(text) && asciiClass[text[i+1]]&classDigit != 0 && isNumber(s.view(start)):
			s.arena = append(s.arena, c) // decimal point inside a number
		case c == '\'' && len(s.arena) > start && i+1 < len(text) && asciiClass[text[i+1]]&classLetter != 0:
			// Contractions and possessives fold into the word (don't, iraq's).
		default:
			if len(s.arena) > start {
				dst = append(dst, s.view(start))
				start = len(s.arena)
			}
		}
	}
	if len(s.arena) > start {
		dst = append(dst, s.view(start))
	}
	return dst
}

// appendTokensRunes is AppendTokens over runes: each rune is lower-cased
// with unicode.ToLower (as strings.ToLower does, invalid UTF-8 becoming
// U+FFFD) before it is classified.
func (s *Scratch) appendTokensRunes(dst []string, text string) []string {
	next := func(i int) rune {
		r, _ := utf8.DecodeRuneInString(text[i:])
		return unicode.ToLower(r)
	}
	start := len(s.arena)
	for i := 0; i < len(text); {
		r, w := utf8.DecodeRuneInString(text[i:])
		r = unicode.ToLower(r)
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
			s.arena = utf8.AppendRune(s.arena, r)
		case r == '.' && len(s.arena) > start && i+w < len(text) && unicode.IsDigit(next(i+w)) && isNumber(s.view(start)):
			s.arena = append(s.arena, '.')
		case r == '\'' && len(s.arena) > start && i+w < len(text) && unicode.IsLetter(next(i+w)):
		default:
			if len(s.arena) > start {
				dst = append(dst, s.view(start))
				start = len(s.arena)
			}
		}
		i += w
	}
	if len(s.arena) > start {
		dst = append(dst, s.view(start))
	}
	return dst
}

// isNumber reports whether strconv.ParseFloat accepts tok.
func isNumber(tok string) bool {
	if !canParse(tok) {
		return false
	}
	_, err := strconv.ParseFloat(tok, 64)
	return err == nil
}

// canParse is a cheap necessary condition for strconv.ParseFloat to
// accept a token, checked first so that ordinary words never pay for a
// *NumError. Tokens are lower case and carry no sign or leading '.', so a
// number is one of the special values or starts with a digit. It also
// ends with a digit: ParseFloat rejects a trailing exponent marker or
// underscore, and a token never ends in '.'.
func canParse(tok string) bool {
	if tok == "" {
		return false
	}
	if isDigit(tok[0]) {
		return isDigit(tok[len(tok)-1])
	}
	return tok == "nan" || tok == "inf" || tok == "infinity"
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// stopwords are high-frequency function words excluded from overlap
// features.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "to": true, "in": true,
	"is": true, "are": true, "was": true, "were": true, "be": true,
	"for": true, "with": true, "and": true, "or": true, "that": true,
	"this": true, "there": true, "here": true, "by": true, "on": true,
	"at": true, "as": true, "it": true, "its": true, "do": true, "does": true,
	"what": true, "which": true, "who": true, "whose": true, "where": true,
	"show": true, "list": true, "give": true, "return": true, "find": true,
	"me": true, "all": true, "each": true, "query": true, "result": true,
	"set": true, "row": true, "rows": true, "column": true, "columns": true,
	"please": true, "us": true,
}

// IsStopword reports whether tok is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// ContentTokens tokenizes and drops stopwords.
func ContentTokens(text string) []string {
	toks := Tokenize(text)
	out := toks[:0:0]
	for _, t := range toks {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// Stem applies a small suffix stemmer (plural and -ing/-ed forms), enough
// to align "flights" with "flight" and "ranked" with "rank".
func Stem(tok string) string {
	keep, y := stemCut(tok)
	if y {
		return tok[:keep] + "y"
	}
	return tok[:keep]
}

// Stem is the package-level Stem, writing a rewritten stem ("cities" ->
// "city") into s instead of allocating it.
func (s *Scratch) Stem(tok string) string {
	keep, y := stemCut(tok)
	if !y {
		return tok[:keep]
	}
	start := len(s.arena)
	s.arena = append(append(s.arena, tok[:keep]...), 'y')
	return s.view(start)
}

// Unescape writes text into s with each doubled quote byte read as one,
// as in the body of a SQL string literal, where O'Brien is written with
// its quote doubled, and returns the copy.
func (s *Scratch) Unescape(text string, quote byte) string {
	start := len(s.arena)
	for i := 0; i < len(text); i++ {
		s.arena = append(s.arena, text[i])
		if text[i] == quote && i+1 < len(text) && text[i+1] == quote {
			i++
		}
	}
	return s.view(start)
}

// stemCut returns the length of tok's prefix that its stem keeps, and
// whether the stem appends a "y" to it.
func stemCut(tok string) (keep int, y bool) {
	n := len(tok)
	switch {
	case n > 4 && strings.HasSuffix(tok, "ies"):
		return n - 3, true
	case n > 4 && strings.HasSuffix(tok, "ing"):
		return n - 3, false
	case n > 3 && strings.HasSuffix(tok, "ed") && !strings.HasSuffix(tok, "eed"):
		return n - 2, false
	case n > 3 && strings.HasSuffix(tok, "es") && !strings.HasSuffix(tok, "ses"):
		return n - 2, false
	case n > 2 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") && !strings.HasSuffix(tok, "us"):
		return n - 1, false
	default:
		return n, false
	}
}

// canonical groups SQL-flavored synonym classes onto one representative,
// so "how many" in a question aligns with "count"/"total" in explanations.
var canonical = map[string]string{
	"many": "count", "number": "count", "count": "count", "total": "count",
	"amount": "count", "sum": "sum", "average": "avg", "avg": "avg",
	"mean": "avg", "maximum": "max", "max": "max", "highest": "max",
	"largest": "max", "most": "max", "greatest": "max", "biggest": "max",
	"top": "max", "minimum": "min", "min": "min", "lowest": "min",
	"smallest": "min", "least": "min", "fewest": "min",
	"greater": "greater", "more": "greater", "above": "greater",
	"over": "greater", "exceeds": "greater", "bigger": "greater",
	"less": "less", "fewer": "less", "below": "less", "under": "less",
	"equal": "equal", "equals": "equal", "exactly": "equal", "same": "equal",
	"not": "not", "no": "not", "except": "not", "without": "not",
	"distinct": "distinct", "different": "distinct", "unique": "distinct",
	"between": "between", "both": "both", "also": "both",
	"missing": "null", "null": "null", "empty": "null",
}

// Canonical maps a (stemmed) token onto its synonym-class representative,
// or returns the token unchanged.
func Canonical(tok string) string {
	if c, ok := canonical[tok]; ok {
		return c
	}
	return tok
}

// phrasePairs maps two-token comparison idioms onto their canonical
// operator class before stopword removal would destroy them ("at least"
// must become "greater", not the aggregate class of "least").
var phrasePairs = map[[2]string]string{
	{"at", "least"}:     "greater",
	{"at", "most"}:      "less",
	{"more", "than"}:    "greater",
	{"greater", "than"}: "greater",
	{"larger", "than"}:  "greater",
	{"bigger", "than"}:  "greater",
	{"less", "than"}:    "less",
	{"fewer", "than"}:   "less",
	{"smaller", "than"}: "less",
	{"lower", "than"}:   "less",
	{"how", "many"}:     "count",
	{"how", "much"}:     "sum",
	{"equal", "to"}:     "equal",
	{"or", "more"}:      "greater",
	{"or", "fewer"}:     "less",
	{"up", "to"}:        "less",
}

// PhraseAt returns toks[i] with a two-token idiom that starts there
// collapsed onto its class token, and the number of tokens it covers (2
// for an idiom, else 1). Walking a token stream with it matches idioms
// greedily from the left.
func PhraseAt(toks []string, i int) (string, int) {
	if i+1 < len(toks) && phraseHead(toks[i]) {
		if repl, ok := phrasePairs[[2]string{toks[i], toks[i+1]}]; ok {
			return repl, 2
		}
	}
	return toks[i], 1
}

// phraseHead reports whether tok is the first token of some phrasePairs
// key, so that most tokens skip hashing the pair.
func phraseHead(tok string) bool {
	switch tok {
	case "at", "more", "greater", "larger", "bigger", "less", "fewer",
		"smaller", "lower", "how", "equal", "or", "up":
		return true
	}
	return false
}

// Numbers extracts the numeric tokens of a text as canonical strings
// (integral floats collapse onto integers).
func Numbers(text string) []string {
	var s Scratch
	return s.AppendNumbers(nil, s.AppendTokens(nil, text))
}

// AppendNumbers appends the canonical form of each token strconv.ParseFloat
// accepts to dst, writing the forms into s.
func (s *Scratch) AppendNumbers(dst, toks []string) []string {
	for _, t := range toks {
		if !canParse(t) {
			continue
		}
		f, err := strconv.ParseFloat(t, 64)
		if err != nil {
			continue
		}
		start := len(s.arena)
		if f == float64(int64(f)) {
			s.arena = strconv.AppendInt(s.arena, int64(f), 10)
		} else {
			s.arena = strconv.AppendFloat(s.arena, f, 'g', -1, 64)
		}
		dst = append(dst, s.view(start))
	}
	return dst
}

// Bigrams returns adjacent token pairs joined with '_'.
func Bigrams(toks []string) []string {
	if len(toks) < 2 {
		return nil
	}
	out := make([]string, 0, len(toks)-1)
	for i := 0; i+1 < len(toks); i++ {
		out = append(out, toks[i]+"_"+toks[i+1])
	}
	return out
}

// Jaccard computes set overlap of two token lists.
func Jaccard(a, b []string) float64 {
	a, b = sortedSet(a), sortedSet(b)
	inter := intersection(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Recall computes |a ∩ b| / |a|: how much of a is covered by b.
func Recall(a, b []string) float64 {
	a, b = sortedSet(a), sortedSet(b)
	if len(a) == 0 {
		return 0
	}
	return float64(intersection(a, b)) / float64(len(a))
}

// sortedSet returns a sorted, duplicate-free copy of toks.
func sortedSet(toks []string) []string {
	toks = slices.Clone(toks)
	slices.Sort(toks)
	return slices.Compact(toks)
}

// intersection counts the elements two sorted sets share.
func intersection(a, b []string) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
