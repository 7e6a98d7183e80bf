package explain

import (
	"bytes"
	"strconv"
	"strings"

	"cyclesql/internal/annotate"
	"cyclesql/internal/provenance"
	"cyclesql/internal/schema"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/storage"
)

// opPhrase verbalizes a comparison operator.
func opPhrase(op string) string {
	switch op {
	case "=":
		return "equal to"
	case "!=", "<>":
		return "not equal to"
	case "<":
		return "less than"
	case "<=":
		return "less than or equal to"
	case ">":
		return "greater than"
	case ">=":
		return "greater than or equal to"
	case "LIKE":
		return "like"
	case "NOT LIKE":
		return "not like"
	default:
		return op
	}
}

// appendPlural appends "one column" / "3 columns".
func appendPlural(dst []byte, n int, noun string) []byte {
	if n == 1 {
		dst = append(dst, "one "...)
		return append(dst, noun...)
	}
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ' ')
	start := len(dst)
	return pluralize(append(dst, noun...), start)
}

// pluralize rewrites the noun phrase dst[start:] into its naive English
// plural (of its head word), "rows" when it is blank.
func pluralize(dst []byte, start int) []byte {
	noun := bytes.TrimSpace(dst[start:])
	dst = dst[:start+copy(dst[start:], noun)]
	noun = dst[start:]
	n := len(noun)
	switch {
	case n == 0:
		return append(dst, "rows"...)
	case noun[n-1] == 's', noun[n-1] == 'x',
		noun[n-1] == 'h' && n > 1 && (noun[n-2] == 'c' || noun[n-2] == 's'):
		return append(dst, "es"...)
	case noun[n-1] == 'y' && n > 1 && !isVowel(noun[n-2]):
		return append(dst[:len(dst)-1], "ies"...)
	default:
		return append(dst, 's')
	}
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// appendBareColumn appends a column spelling with its qualifiers stripped,
// naturalized.
func appendBareColumn(dst []byte, col string) []byte {
	return schema.AppendNatural(dst, col[strings.LastIndexByte(col, '.')+1:])
}

// appendThe appends "the <bare column><rest>".
func appendThe(dst []byte, col, rest string) []byte {
	dst = append(dst, "the "...)
	dst = appendBareColumn(dst, col)
	return append(dst, rest...)
}

// isIDColumn reports whether an aggregate argument is an identifier-like
// column; COUNT over identifiers reads as counting the entity itself
// ("2 flights", not "2 ids").
func isIDColumn(arg string) bool {
	col := strings.ToLower(arg[strings.LastIndexByte(arg, '.')+1:])
	return col == "id" || strings.HasSuffix(col, "_id") || strings.HasSuffix(col, "id") && len(col) <= 4 || col == "code"
}

// appendTableNames appends the names of the core's base tables, in FROM
// order; derived tables have none.
func appendTableNames(dst []string, core *sqlast.SelectCore) []string {
	if core.From == nil {
		return dst
	}
	if name := core.From.Base.Name; name != "" {
		dst = append(dst, name)
	}
	for _, j := range core.From.Joins {
		if j.Table.Name != "" {
			dst = append(dst, j.Table.Name)
		}
	}
	return dst
}

// appendEntity appends the entity a count(*) counts: the natural name of
// the first table of the core.
func appendEntity(dst []byte, db *storage.Database, core *sqlast.SelectCore) []byte {
	if core.From == nil {
		return append(dst, "row"...)
	}
	name := core.From.Base.Name
	if t := db.Schema.Table(name); t != nil {
		return t.AppendNatural(dst)
	}
	return schema.AppendNatural(dst, name)
}

// appendItems verbalizes a core's projection list.
func appendItems(dst []byte, core *sqlast.SelectCore) []byte {
	start := len(dst)
	for _, it := range core.Items {
		mark := len(dst)
		if mark > start {
			dst = append(dst, " and "...)
		}
		if it.Star {
			dst = append(dst, "all columns"...)
			continue
		}
		switch x := it.Expr.(type) {
		case *sqlast.ColumnRef:
			dst = appendThe(dst, x.Column, "")
		case *sqlast.FuncCall:
			if !x.IsAggregate() {
				dst = dst[:mark]
				continue
			}
			dst = append(dst, "the "...)
			dst = append(dst, annotate.FuncName(x)...)
			dst = append(dst, " of "...)
			if !x.Star && len(x.Args) == 1 {
				dst = appendBareColumn(dst, sqlast.ExprSQL(x.Args[0]))
			} else {
				dst = append(dst, "rows"...)
			}
		default:
			dst = sqlast.AppendExpr(dst, it.Expr)
		}
	}
	if len(dst) == start {
		dst = append(dst, "the rows"...)
	}
	return dst
}

// appendRepresentativeRow appends ", for example, ..." over the first
// provenance row of a part, for pure-projection queries ("country
// Anguilla, belongs to the continent North America"); nothing when the
// part has no rows.
func appendRepresentativeRow(dst []byte, part provenance.Part) []byte {
	if part.Table == nil || part.Table.NumRows() == 0 {
		return dst
	}
	row := part.Table.Rows[0]
	dst = append(dst, ", for example, "...)
	// Keep phrases short; Rule 2 can project many columns.
	for i := range min(len(part.Table.Columns), 5) {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendThe(dst, part.Table.Columns[i], " is ")
		dst = row[i].AppendString(dst)
	}
	return dst
}
