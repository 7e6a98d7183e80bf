// The seed SQL front end — the string-splitting lexer and
// node-allocating recursive-descent parser that shipped with the
// original reproduction — preserved as a reference oracle for
// differential testing of the zero-allocation front end that replaced
// it (internal/sqllex, internal/sqlparse, sqlnorm.CacheKey).
//
// Nothing in these seed*_test.go files is optimized, and nothing in them
// can reach a production path: Go builds _test.go files only into this
// package's test binary, and no package can import them. The
// differential suites (frontdiff_test.go, the FuzzLex / FuzzParse /
// FuzzCacheKey targets) compare the oracle's output bit-for-bit against
// the rewritten front end: deeply-equal ASTs, identical CacheKey strings,
// and identical ok/error verdicts.
//
// The code below is the seed implementation verbatim (modulo package
// plumbing). Do not fix bugs here without teaching the differential
// tests about the divergence first — the whole point of the oracle is
// that it does not drift.

package frontdiff

import (
	"fmt"
	"strings"
	"unicode"

	"cyclesql/internal/sqllex"
)

// keywords recognized by the dialect, as the seed lexer spelled them.
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

func isKeyword(s string) bool { return keywords[strings.ToUpper(s)] }

// seedLex is the seed lexer: per-token string materialization via
// strings.Builder, keyword folding through strings.ToUpper, one token
// slice grown by append.
func seedLex(input string) ([]sqllex.Token, error) {
	var toks []sqllex.Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"' || c == '`':
			start := i
			quote := c
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == quote {
					if i+1 < n && input[i+1] == quote && quote == '\'' {
						sb.WriteByte(quote)
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqllex: unterminated string at offset %d", start)
			}
			kind := sqllex.TokString
			if quote == '`' || quote == '"' {
				kind = sqllex.TokIdent
			}
			toks = append(toks, sqllex.Token{Kind: kind, Text: sb.String(), Pos: start})
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			for i < n && (isDigit(input[i]) || input[i] == '.') {
				i++
			}
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
			toks = append(toks, sqllex.Token{Kind: sqllex.TokNumber, Text: input[start:i], Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			if isKeyword(word) {
				toks = append(toks, sqllex.Token{Kind: sqllex.TokKeyword, Text: strings.ToUpper(word), Pos: start})
			} else {
				toks = append(toks, sqllex.Token{Kind: sqllex.TokIdent, Text: word, Pos: start})
			}
		default:
			start := i
			var op string
			switch c {
			case '<':
				if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
					op = input[i : i+2]
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
					return nil, fmt.Errorf("sqllex: unexpected '!' at offset %d", i)
				}
			case '=', '+', '-', '*', '/', '(', ')', ',', '.', ';', '%':
				op = string(c)
			default:
				return nil, fmt.Errorf("sqllex: unexpected byte %q at offset %d", c, i)
			}
			i = start + len(op)
			toks = append(toks, sqllex.Token{Kind: sqllex.TokOp, Text: op, Pos: start})
		}
	}
	toks = append(toks, sqllex.Token{Kind: sqllex.TokEOF, Pos: n})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c)) || isDigit(c)
}
