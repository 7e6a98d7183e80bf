// Package sqllex tokenizes the Spider SQL dialect: SELECT statements with
// joins, grouping, ordering, set operations and nested subqueries. The
// lexer is shared by the parser and by the EM normalizer's token-level
// canonicalization.
//
// The implementation is a hand-rolled byte-scan state machine built for
// the serving hot path, where every candidate, iteration and HTTP
// request pays a tokenization pass:
//
//   - Token.Text is a sub-slice of the input wherever the dialect allows
//     it (identifiers, numbers, operators, and string literals without
//     escaped quotes), so the common token never materializes a string.
//   - Keywords resolve through a length-bucketed table of canonical
//     upper-case spellings with an allocation-free ASCII case fold, so
//     "select" lexes as the interned "SELECT" without strings.ToUpper.
//     Words containing non-ASCII bytes take a Unicode slow path that
//     reproduces the seed lexer's strings.ToUpper semantics exactly.
//   - Character classes are table-driven ([256]bool populated from the
//     same unicode predicates the seed lexer branched on), replacing
//     per-byte unicode.IsLetter calls.
//   - LexInto appends into a caller-owned token buffer, so pooled
//     parsers amortize the token slice to zero allocations per parse.
//
// Lexical errors are *Error values carrying the exact byte offset in the
// original input at which scanning failed: an unterminated string
// reports the offset where the input ran out (with the opening quote's
// offset in the message), not the opening quote itself, and token Pos
// is always the token's start offset in the original input — even for
// tokens following escaped string literals, whose Text is shorter than
// the source span it covers. The seed implementation this replaces
// lives on as the differential-test oracle in internal/frontdiff's
// seed*_test.go files.
package sqllex

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies a token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString // quoted string, Text holds the unquoted payload
	TokOp     // operators and punctuation: = != <> < <= > >= + - * / ( ) , . ;
)

// Token is one lexical unit. Pos is the byte offset of the token's
// first byte in the original input; Text sub-slices the input except
// for keywords (canonical upper-case spelling), identifier/string
// literals with escaped quotes (unquoted payload), and single-byte
// operators (interned constants).
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// Error is a lexical error. Offset is the byte offset in the original
// input at which scanning failed — for an unterminated string literal
// that is the end of the input, where the closing quote was expected,
// not the opening quote.
type Error struct {
	Offset int
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("sqllex: %s at offset %d", e.Msg, e.Offset)
}

// keywords recognized by the dialect. Identifiers matching these
// (case-insensitively) lex as TokKeyword with upper-cased Text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"JOIN": true, "INNER": true, "LEFT": true, "OUTER": true, "ON": true, "AS": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "LIKE": true,
	"BETWEEN": true, "IS": true, "NULL": true, "EXISTS": true,
	"UNION": true, "INTERSECT": true, "EXCEPT": true, "ALL": true,
	"DISTINCT": true, "ASC": true, "DESC": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true, "ABS": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
}

// IsKeyword reports whether s is a dialect keyword.
func IsKeyword(s string) bool { return keywords[strings.ToUpper(s)] }

// maxKeywordLen bounds the length buckets; INTERSECT is the longest
// keyword at 9 bytes, BY and the two-letter operators the shortest at 2.
const maxKeywordLen = 9

// kwBuckets holds the canonical upper-case keyword spellings bucketed by
// byte length, so lookup touches only the handful of keywords that could
// match at all. The strings are the map keys above — interned in the
// binary, so emitting one allocates nothing.
var kwBuckets [maxKeywordLen + 1][]string

// Character-class tables, populated from the exact predicates the seed
// lexer evaluated per byte (unicode.IsLetter over the byte widened to a
// rune, i.e. Latin-1 semantics for bytes >= 0x80).
var (
	identStartTable [256]bool
	identPartTable  [256]bool
	opByteText      [256]string // single-byte operators, interned
)

func init() {
	for c := 0; c < 256; c++ {
		identStartTable[c] = c == '_' || unicode.IsLetter(rune(c))
		identPartTable[c] = c == '_' || c == '$' || unicode.IsLetter(rune(c)) || isDigit(byte(c))
	}
	for _, op := range []string{"=", "+", "-", "*", "/", "(", ")", ",", ".", ";", "%", "<", ">"} {
		opByteText[op[0]] = op
	}
	for kw := range keywords {
		kwBuckets[len(kw)] = append(kwBuckets[len(kw)], kw)
	}
}

// keywordOf resolves word to its canonical upper-case keyword spelling,
// allocation-free for ASCII words. Words containing bytes >= 0x80 defer
// to the Unicode fold the seed lexer used, so exotic case foldings
// (Kelvin signs, long s) classify identically to the oracle.
func keywordOf(word string) (string, bool) {
	if len(word) < 2 || len(word) > maxKeywordLen {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		if word[i] >= 0x80 {
			if IsKeyword(word) {
				return strings.ToUpper(word), true
			}
			return "", false
		}
	}
	for _, kw := range kwBuckets[len(word)] {
		if matchFoldASCII(word, kw) {
			return kw, true
		}
	}
	return "", false
}

// matchFoldASCII reports whether word equals the upper-case keyword kw
// under ASCII case folding. kw contains only A-Z, so each position
// matches exactly the upper- or lower-case spelling of that letter.
func matchFoldASCII(word, kw string) bool {
	for i := 0; i < len(kw); i++ {
		if c, k := word[i], kw[i]; c != k && c != k+('a'-'A') {
			return false
		}
	}
	return true
}

// Lex tokenizes input. It returns an error for unterminated strings or
// bytes outside the dialect.
func Lex(input string) ([]Token, error) {
	return LexInto(input, nil)
}

// LexInto tokenizes input, appending to toks (which may be nil or a
// recycled buffer with its length reset) and returning the extended
// slice. Pooled parsers pass their retained buffer so that a warm parse
// performs no token allocations at all.
func LexInto(input string, toks []Token) ([]Token, error) {
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"' || c == '`':
			tok, next, err := lexQuoted(input, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = next
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			for i < n && (isDigit(input[i]) || input[i] == '.') {
				i++
			}
			// Scientific suffix (rare in benchmarks but cheap to support).
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && isDigit(input[j]) {
					i = j
					for i < n && isDigit(input[i]) {
						i++
					}
				}
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case identStartTable[c]:
			start := i
			for i < n && identPartTable[input[i]] {
				i++
			}
			word := input[start:i]
			if kw, ok := keywordOf(word); ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		default:
			start := i
			var op string
			switch c {
			case '<':
				if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
					if input[i+1] == '=' {
						op = "<="
					} else {
						op = "<>"
					}
				} else {
					op = "<"
				}
			case '>':
				if i+1 < n && input[i+1] == '=' {
					op = ">="
				} else {
					op = ">"
				}
			case '!':
				if i+1 < n && input[i+1] == '=' {
					op = "!="
				} else {
					return nil, &Error{Offset: i, Msg: "unexpected '!'"}
				}
			default:
				if opByteText[c] == "" {
					return nil, &Error{Offset: i, Msg: fmt.Sprintf("unexpected byte %q", c)}
				}
				op = opByteText[c]
			}
			i = start + len(op)
			toks = append(toks, Token{Kind: TokOp, Text: op, Pos: start})
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

// lexQuoted scans the quoted token opening at input[start] and returns
// the token plus the offset of the first byte after the closing quote.
// Single quotes delimit string literals with ” escaping the quote;
// back and double quotes delimit identifiers with no escape. The
// common, escape-free case returns the payload as a sub-slice of input;
// only a literal containing ” materializes its unquoted spelling.
func lexQuoted(input string, start int) (Token, int, error) {
	n := len(input)
	quote := input[start]
	kind := TokString
	if quote == '`' || quote == '"' {
		// Back/double quotes delimit identifiers in this dialect.
		kind = TokIdent
	}
	i := start + 1
	for i < n {
		if input[i] == quote {
			if quote == '\'' && i+1 < n && input[i+1] == quote {
				return lexQuotedEscaped(input, start, i)
			}
			return Token{Kind: kind, Text: input[start+1 : i], Pos: start}, i + 1, nil
		}
		i++
	}
	return Token{}, 0, &Error{Offset: n, Msg: fmt.Sprintf("unterminated string literal (opened at offset %d)", start)}
}

// lexQuotedEscaped finishes scanning a single-quoted literal that
// contains at least one escaped quote (input[esc] is the first). It is
// the one tokenization path that allocates: the unquoted payload is not
// a contiguous span of the input.
func lexQuotedEscaped(input string, start, esc int) (Token, int, error) {
	n := len(input)
	var sb strings.Builder
	sb.WriteString(input[start+1 : esc+1]) // payload so far, incl. the escaped quote
	i := esc + 2
	for i < n {
		if input[i] == '\'' {
			if i+1 < n && input[i+1] == '\'' {
				sb.WriteByte('\'')
				i += 2
				continue
			}
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, i + 1, nil
		}
		sb.WriteByte(input[i])
		i++
	}
	return Token{}, 0, &Error{Offset: n, Msg: fmt.Sprintf("unterminated string literal (opened at offset %d)", start)}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
