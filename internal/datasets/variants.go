package datasets

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
)

// vocabByDomain indexes every generated domain's vocabulary for the
// variant perturbations.
var vocabByDomain = func() map[string]Vocab {
	m := map[string]Vocab{}
	for _, vs := range [][]Vocab{trainVocabs, devVocabs, testVocabs, scienceVocabs} {
		for _, v := range vs {
			m[v.Domain] = v
		}
	}
	return m
}()

// handSyn supplies synonym maps for the hand-written databases.
var handSyn = map[string]map[string]string{
	"world_1": {
		"country":    "nation",
		"countries":  "nations",
		"city":       "metropolis",
		"cities":     "urban areas",
		"population": "number of inhabitants",
		"language":   "tongue",
		"languages":  "tongues",
		"continent":  "landmass",
	},
	"flight_2": {
		"flight":   "trip",
		"flights":  "trips",
		"aircraft": "plane",
		"origin":   "departure city",
		"distance": "range",
	},
}

// makeSyn produces the Spider-Syn perturbation: schema-related terms in
// the question are replaced with handpicked synonyms, breaking lexical
// matching between NL and schema (paper §V-A1).
func makeSyn(ex Example) (Example, bool) {
	syn := handSyn[ex.DBName]
	if v, ok := vocabByDomain[ex.DBName]; ok {
		syn = v.Syn
	}
	if len(syn) == 0 {
		return ex, false
	}
	q := replaceWords(ex.Question, syn)
	if q == ex.Question {
		return ex, false
	}
	out := ex
	out.ID = "syn-" + ex.ID
	out.Question = q
	out.SynPerturbed = true
	return out, true
}

// replaceWords applies every whole-word replacement of syn to s, in
// sorted key order: a replacement can create or consume a word another
// one matches, so a fixed order keeps the result the same in every
// process.
func replaceWords(s string, syn map[string]string) string {
	for _, from := range slices.Sorted(maps.Keys(syn)) {
		s = replaceWord(s, from, syn[from])
	}
	return s
}

// makeRealistic produces the Spider-Realistic perturbation: explicit
// column-name mentions are removed or replaced by vague referents, so
// models must infer the schema item from context (paper §V-A1).
func makeRealistic(ex Example) (Example, bool) {
	v, ok := vocabByDomain[ex.DBName]
	q := ex.Question
	changed := false
	drop := func(word, repl string) {
		if word == "" {
			return
		}
		if r := replaceWord(q, word, repl); r != q {
			q = strings.Join(strings.Fields(r), " ")
			changed = true
		}
	}
	if ok {
		// Column-name words become vague referents; table words stay.
		drop(v.MeasureNatural, "value")
		drop(v.PlaceNatural, "")
		drop(v.LevelNatural, "figure")
		drop(v.OwnAttrNatural, "value")
		drop(v.OwnCatNatural, "")
		drop(v.CatMeasureNatural, "value")
	} else {
		for _, col := range []string{"population", "continent", "language", "distance", "origin"} {
			drop(col, "value")
		}
	}
	if !changed {
		return ex, false
	}
	out := ex
	out.ID = "realistic-" + ex.ID
	out.Question = q
	out.SchemaIndirect = true
	return out, true
}

// replaceWord replaces whole-word, case-insensitive occurrences.
func replaceWord(s, from, to string) string {
	if from == "" {
		return s
	}
	lower := strings.ToLower(s)
	needle := strings.ToLower(from)
	var b strings.Builder
	i := 0
	for {
		j := strings.Index(lower[i:], needle)
		if j < 0 {
			b.WriteString(s[i:])
			return b.String()
		}
		j += i
		end := j + len(needle)
		beforeOK := j == 0 || !isWordByte(lower[j-1])
		afterOK := end == len(lower) || !isWordByte(lower[end])
		if beforeOK && afterOK {
			b.WriteString(s[i:j])
			b.WriteString(to)
			i = end
		} else {
			b.WriteString(s[i : j+1])
			i = j + 1
		}
	}
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}

// buildDK assembles the Spider-DK benchmark: questions phrased with
// domain-knowledge terms ("veteran pilots" for age >= 50) whose resolution
// requires the knowledge mapping, not lexical schema matching.
func buildDK() *Benchmark {
	base := Spider()
	b := &Benchmark{Name: "spider-dk", Databases: base.Databases}
	rng := rand.New(rand.NewSource(77))
	for _, v := range devVocabs {
		db := base.DB(v.Domain)
		i := 0
		// Sorted keys fix the example numbering and the RNG draws, so IDs
		// and questions are the same in every process.
		for _, adj := range slices.Sorted(maps.Keys(v.DK)) {
			col, op, val := parseDKCond(v.DK[adj])
			patterns := []struct{ q, sql string }{
				{fmt.Sprintf("How many %s %ss are there?", adj, subjectFor(v, col)),
					fmt.Sprintf("SELECT count(*) FROM %s WHERE %s %s %s", tableFor(v, col), col, op, val)},
				{fmt.Sprintf("List the names of %s %ss.", adj, subjectFor(v, col)),
					fmt.Sprintf("SELECT name FROM %s WHERE %s %s %s", tableFor(v, col), col, op, val)},
				{fmt.Sprintf("Show the name and %s of %s %ss.", measureNaturalFor(v, col), adj, subjectFor(v, col)),
					fmt.Sprintf("SELECT name, %s FROM %s WHERE %s %s %s", measureFor(v, col), tableFor(v, col), col, op, val)},
			}
			// Two extra combined-condition patterns when the DK condition
			// lives on the entity table.
			if tableFor(v, col) == v.EntTable {
				p := pick(rng, v.Places)
				patterns = append(patterns,
					struct{ q, sql string }{
						fmt.Sprintf("How many %s %ss have %s %s?", adj, v.EntNatural, v.PlaceNatural, p),
						fmt.Sprintf("SELECT count(*) FROM %s WHERE %s %s %s AND %s = '%s'", v.EntTable, col, op, val, v.Place, esc(p)),
					},
					struct{ q, sql string }{
						fmt.Sprintf("Which %s %s has the highest %s?", adj, v.EntNatural, v.MeasureNatural),
						fmt.Sprintf("SELECT name FROM %s WHERE %s %s %s ORDER BY %s DESC LIMIT 1", v.EntTable, col, op, val, v.Measure),
					},
				)
			}
			for _, p := range patterns {
				ex := newExample(fmt.Sprintf("dk-%s-%03d", v.Domain, i), v.Domain, p.q, p.sql)
				ex.RequiresDK = true
				mustExecute(db, ex)
				b.Dev = append(b.Dev, ex)
				i++
			}
		}
	}
	// The hand-written world_1 contributes classic DK items.
	worldDK := []struct{ q, sql string }{
		{"How many European countries are there?",
			"SELECT count(*) FROM country WHERE continent = 'Europe'"},
		{"List the names of African countries.",
			"SELECT name FROM country WHERE continent = 'Africa'"},
		{"Show the most populous Asian country.",
			"SELECT name FROM country WHERE continent = 'Asia' ORDER BY population DESC LIMIT 1"},
		{"How many Anglophone countries are there?",
			"SELECT count(DISTINCT countrycode) FROM countrylanguage WHERE language = 'English'"},
		{"List the names of Francophone nations.",
			"SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'French'"},
	}
	db := base.DB("world_1")
	for i, p := range worldDK {
		ex := newExample(fmt.Sprintf("dk-world_1-%03d", i), "world_1", p.q, p.sql)
		ex.RequiresDK = true
		mustExecute(db, ex)
		b.Dev = append(b.Dev, ex)
	}
	return b
}

// parseDKCond splits a DK condition string like ">=50", "=0" or "=black"
// into operator and SQL-rendered value.
func parseDKCond(cond [2]string) (col, op, val string) {
	col = cond[0]
	c := cond[1]
	for _, candidate := range []string{">=", "<=", "!=", "=", ">", "<"} {
		if strings.HasPrefix(c, candidate) {
			op = candidate
			val = c[len(candidate):]
			break
		}
	}
	if op == "" {
		op, val = "=", c
	}
	if !isNumeric(val) {
		val = "'" + esc(val) + "'"
	}
	return col, op, val
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if (s[i] < '0' || s[i] > '9') && s[i] != '.' && !(i == 0 && s[i] == '-') {
			return false
		}
	}
	return true
}

// tableFor locates which table of the generic shape owns a column.
func tableFor(v Vocab, col string) string {
	switch col {
	case v.OwnAttr, v.OwnCat:
		return v.OwnTable
	case v.CatMeasure:
		return v.CatTable
	default:
		return v.EntTable
	}
}

// measureFor returns the numeric measure column of the table owning col.
func measureFor(v Vocab, col string) string {
	switch tableFor(v, col) {
	case v.OwnTable:
		return v.OwnAttr
	case v.CatTable:
		return v.CatMeasure
	default:
		return v.Measure
	}
}

func measureNaturalFor(v Vocab, col string) string {
	switch tableFor(v, col) {
	case v.OwnTable:
		return v.OwnAttrNatural
	case v.CatTable:
		return v.CatMeasureNatural
	default:
		return v.MeasureNatural
	}
}

func subjectFor(v Vocab, col string) string {
	switch tableFor(v, col) {
	case v.OwnTable:
		return v.OwnNatural
	case v.CatTable:
		return v.CatNatural
	default:
		return v.EntNatural
	}
}
