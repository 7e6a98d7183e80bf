package datasets

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"cyclesql/internal/sqleval"
	"cyclesql/internal/storage"
)

// template instantiates one NL-SQL pair family on a generic domain. The
// returned question is phrased with the vocabulary's natural names so the
// variant perturbations (Realistic/Syn/DK) can rewrite it predictably.
type template func(v Vocab, rng *rand.Rand) (question, sql string)

// The template library spans the Spider difficulty spectrum: simple
// filters and aggregates, grouping with HAVING, multi-table joins over the
// FK and junction structure, set operations, and nested subqueries.
var templates = []template{
	// -- easy --
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("How many %ss are there?", v.EntNatural),
			fmt.Sprintf("SELECT count(*) FROM %s", v.EntTable)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		p := pick(rng, v.Places)
		return fmt.Sprintf("How many %ss have %s %s?", v.EntNatural, v.PlaceNatural, p),
			fmt.Sprintf("SELECT count(*) FROM %s WHERE %s = '%s'", v.EntTable, v.Place, esc(p))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("What is the maximum %s of all %ss?", v.MeasureNatural, v.EntNatural),
			fmt.Sprintf("SELECT max(%s) FROM %s", v.Measure, v.EntTable)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		t := threshold(rng, v.MeasureRange)
		return fmt.Sprintf("List the names of %ss whose %s is greater than %d.", v.EntNatural, v.MeasureNatural, t),
			fmt.Sprintf("SELECT name FROM %s WHERE %s > %d", v.EntTable, v.Measure, t)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("List the distinct %s values of %ss.", v.PlaceNatural, v.EntNatural),
			fmt.Sprintf("SELECT DISTINCT %s FROM %s", v.Place, v.EntTable)
	},
	// -- medium --
	func(v Vocab, rng *rand.Rand) (string, string) {
		p := pick(rng, v.Places)
		return fmt.Sprintf("Show the name and %s of %ss with %s %s.", v.MeasureNatural, v.EntNatural, v.PlaceNatural, p),
			fmt.Sprintf("SELECT name, %s FROM %s WHERE %s = '%s'", v.Measure, v.EntTable, v.Place, esc(p))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("Which %s has the highest %s?", v.EntNatural, v.MeasureNatural),
			fmt.Sprintf("SELECT name FROM %s ORDER BY %s DESC LIMIT 1", v.EntTable, v.Measure)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		k := 2 + rng.Intn(3)
		return fmt.Sprintf("What are the names of the %d %ss with the lowest %s?", k, v.EntNatural, v.MeasureNatural),
			fmt.Sprintf("SELECT name FROM %s ORDER BY %s LIMIT %d", v.EntTable, v.Measure, k)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("For each %s, how many %ss are there?", v.PlaceNatural, v.EntNatural),
			fmt.Sprintf("SELECT %s, count(*) FROM %s GROUP BY %s", v.Place, v.EntTable, v.Place)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("What is the average %s for each %s of %ss?", v.MeasureNatural, v.PlaceNatural, v.EntNatural),
			fmt.Sprintf("SELECT %s, avg(%s) FROM %s GROUP BY %s", v.Place, v.Measure, v.EntTable, v.Place)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		a, b := span(rng, v.MeasureRange)
		return fmt.Sprintf("How many %ss have %s between %d and %d?", v.EntNatural, v.MeasureNatural, a, b),
			fmt.Sprintf("SELECT count(*) FROM %s WHERE %s BETWEEN %d AND %d", v.EntTable, v.Measure, a, b)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		prefix := firstLetter(v.EntNames[rng.Intn(len(v.EntNames))])
		return fmt.Sprintf("Show the names of %ss whose name starts with %s.", v.EntNatural, prefix),
			fmt.Sprintf("SELECT name FROM %s WHERE name LIKE '%s%%'", v.EntTable, esc(prefix))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("Count the number of distinct %s values among %ss.", v.PlaceNatural, v.EntNatural),
			fmt.Sprintf("SELECT count(DISTINCT %s) FROM %s", v.Place, v.EntTable)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		t := threshold(rng, v.OwnAttrRange)
		return fmt.Sprintf("Show the names of %ss whose %s is at least %d.", v.OwnNatural, v.OwnAttrNatural, t),
			fmt.Sprintf("SELECT name FROM %s WHERE %s >= %d", v.OwnTable, v.OwnAttr, t)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		c := pick(rng, v.CatNames)
		return fmt.Sprintf("How many %ss use the %s named %s?", v.EntNatural, v.CatNatural, c),
			fmt.Sprintf("SELECT count(*) FROM %s AS T1 JOIN %s AS T2 ON T1.%s = T2.id WHERE T2.name = '%s'",
				v.EntTable, v.CatTable, v.FKCol, esc(c))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		c := pick(rng, v.CatNames)
		return fmt.Sprintf("Show the names of %ss of the %s named %s.", v.EntNatural, v.CatNatural, c),
			fmt.Sprintf("SELECT T1.name FROM %s AS T1 JOIN %s AS T2 ON T1.%s = T2.id WHERE T2.name = '%s'",
				v.EntTable, v.CatTable, v.FKCol, esc(c))
	},
	// -- hard --
	func(v Vocab, rng *rand.Rand) (string, string) {
		k := 2 + rng.Intn(2)
		return fmt.Sprintf("Which %s values have at least %d %ss?", v.PlaceNatural, k, v.EntNatural),
			fmt.Sprintf("SELECT %s FROM %s GROUP BY %s HAVING count(*) >= %d", v.Place, v.EntTable, v.Place, k)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("Which %s has the most %ss?", v.CatNatural, v.EntNatural),
			fmt.Sprintf("SELECT T2.name FROM %s AS T1 JOIN %s AS T2 ON T1.%s = T2.id GROUP BY T2.name ORDER BY count(*) DESC LIMIT 1",
				v.EntTable, v.CatTable, v.FKCol)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("Show the names of %ss whose %s is above the average.", v.EntNatural, v.MeasureNatural),
			fmt.Sprintf("SELECT name FROM %s WHERE %s > (SELECT avg(%s) FROM %s)", v.EntTable, v.Measure, v.Measure, v.EntTable)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("List the names of %ss that are not involved with any %s.", v.OwnNatural, v.EntNatural),
			fmt.Sprintf("SELECT name FROM %s WHERE id NOT IN (SELECT %s_id FROM %s_%s)",
				v.OwnTable, v.OwnTable, v.EntTable, v.OwnTable)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		e := pick(rng, v.EntNames)
		return fmt.Sprintf("Show the names of %ss involved with the %s named %s.", v.OwnNatural, v.EntNatural, e),
			fmt.Sprintf("SELECT T3.name FROM %s AS T1 JOIN %s_%s AS T2 ON T1.id = T2.%s_id JOIN %s AS T3 ON T3.id = T2.%s_id WHERE T1.name = '%s'",
				v.EntTable, v.EntTable, v.OwnTable, v.EntTable, v.OwnTable, v.OwnTable, esc(e))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		o := pick(rng, v.OwnNames)
		return fmt.Sprintf("Count the number of %ss involved with the %s named %s.", v.EntNatural, v.OwnNatural, o),
			fmt.Sprintf("SELECT count(*) FROM %s AS T1 JOIN %s_%s AS T2 ON T1.id = T2.%s_id JOIN %s AS T3 ON T3.id = T2.%s_id WHERE T3.name = '%s'",
				v.EntTable, v.EntTable, v.OwnTable, v.EntTable, v.OwnTable, v.OwnTable, esc(o))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		p, p2 := pick2(rng, v.Places)
		return fmt.Sprintf("How many %ss have %s %s or %s %s?", v.EntNatural, v.PlaceNatural, p, v.PlaceNatural, p2),
			fmt.Sprintf("SELECT count(*) FROM %s WHERE %s = '%s' OR %s = '%s'", v.EntTable, v.Place, esc(p), v.Place, esc(p2))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		p := pick(rng, v.Places)
		t := threshold(rng, v.MeasureRange)
		return fmt.Sprintf("How many %ss have %s %s and %s greater than %d?", v.EntNatural, v.PlaceNatural, p, v.MeasureNatural, t),
			fmt.Sprintf("SELECT count(*) FROM %s WHERE %s = '%s' AND %s > %d", v.EntTable, v.Place, esc(p), v.Measure, t)
	},
	// -- extra --
	func(v Vocab, rng *rand.Rand) (string, string) {
		l1 := v.LevelRange[0]
		l2 := v.LevelRange[0] + 1
		return fmt.Sprintf("Which %s values have %ss with %s %d and also %ss with %s %d?",
				v.PlaceNatural, v.EntNatural, v.LevelNatural, l1, v.EntNatural, v.LevelNatural, l2),
			fmt.Sprintf("SELECT %s FROM %s WHERE %s = %d INTERSECT SELECT %s FROM %s WHERE %s = %d",
				v.Place, v.EntTable, v.Level, l1, v.Place, v.EntTable, v.Level, l2)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		p := pick(rng, v.Places)
		return fmt.Sprintf("List the names of %ss except those with %s %s.", v.EntNatural, v.PlaceNatural, p),
			fmt.Sprintf("SELECT name FROM %s EXCEPT SELECT name FROM %s WHERE %s = '%s'",
				v.EntTable, v.EntTable, v.Place, esc(p))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		t := threshold(rng, v.MeasureRange)
		tc := threshold(rng, v.CatMeasureRange)
		return fmt.Sprintf("Show the names of %ss with %s above %d whose %s has %s above %d.",
				v.EntNatural, v.MeasureNatural, t, v.CatNatural, v.CatMeasureNatural, tc),
			fmt.Sprintf("SELECT T1.name FROM %s AS T1 JOIN %s AS T2 ON T1.%s = T2.id WHERE T1.%s > %d AND T2.%s > %d",
				v.EntTable, v.CatTable, v.FKCol, v.Measure, t, v.CatMeasure, tc)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		c := pick(rng, v.OwnCats)
		return fmt.Sprintf("List the names of %ss that involve no %s whose %s is %s.",
				v.EntNatural, v.OwnNatural, v.OwnCatNatural, c),
			fmt.Sprintf("SELECT name FROM %s WHERE id NOT IN (SELECT T2.%s_id FROM %s_%s AS T2 JOIN %s AS T3 ON T3.id = T2.%s_id WHERE T3.%s = '%s')",
				v.EntTable, v.EntTable, v.EntTable, v.OwnTable, v.OwnTable, v.OwnTable, v.OwnCat, esc(c))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("For each %s name, return the name and the number of %ss, for those with more than 2 %ss.",
				v.CatNatural, v.EntNatural, v.EntNatural),
			fmt.Sprintf("SELECT T2.name, count(*) FROM %s AS T1 JOIN %s AS T2 ON T1.%s = T2.id GROUP BY T2.name HAVING count(*) > 2 ORDER BY count(*) DESC",
				v.EntTable, v.CatTable, v.FKCol)
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		p, p2 := pick2(rng, v.Places)
		return fmt.Sprintf("Show the names of %ss with %s %s together with the names of %ss with %s %s.",
				v.EntNatural, v.PlaceNatural, p, v.EntNatural, v.PlaceNatural, p2),
			fmt.Sprintf("SELECT name FROM %s WHERE %s = '%s' UNION SELECT name FROM %s WHERE %s = '%s'",
				v.EntTable, v.Place, esc(p), v.EntTable, v.Place, esc(p2))
	},
	func(v Vocab, rng *rand.Rand) (string, string) {
		return fmt.Sprintf("Return the average, minimum, and maximum %s across all %ss.", v.MeasureNatural, v.EntNatural),
			fmt.Sprintf("SELECT avg(%s), min(%s), max(%s) FROM %s", v.Measure, v.Measure, v.Measure, v.EntTable)
	},
}

// generateExamples instantiates count examples over the domain by cycling
// through the template library with a seeded generator, deduplicating on
// (question, SQL), and asserting every gold query executes.
func generateExamples(db *storage.Database, v Vocab, seed int64, count int) []Example {
	gold := goldExecutor(db)
	rng := rand.New(rand.NewSource(seed))
	var out []Example
	seen := map[string]bool{}
	attempts := 0
	for len(out) < count && attempts < count*20 {
		attempts++
		tmpl := templates[attempts%len(templates)]
		q, sql := tmpl(v, rng)
		key := q + "\x00" + sql
		if seen[key] {
			continue
		}
		seen[key] = true
		ex := newExample(fmt.Sprintf("%s-%03d", v.Domain, len(out)), v.Domain, q, sql)
		mustExecute(gold, ex)
		out = append(out, ex)
	}
	return out
}

// goldExecutor returns the executor a generator checks one database's
// gold queries on. It runs over a snapshot view, so the indexes the
// checks build go with the view instead of staying on the benchmark's
// database for the life of the process.
func goldExecutor(db *storage.Database) *sqleval.Executor {
	return sqleval.New(db.Snapshot().DB())
}

// mustExecute asserts a gold query runs; generator bugs fail at build time.
func mustExecute(gold *sqleval.Executor, ex Example) {
	res, err := gold.Run(context.Background(), ex.Gold)
	res.Release()
	if err != nil {
		panic(fmt.Sprintf("datasets: gold query for %s does not execute: %v (%s)", ex.ID, err, ex.GoldSQL))
	}
}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

func pick2(rng *rand.Rand, pool []string) (string, string) {
	a := rng.Intn(len(pool))
	b := rng.Intn(len(pool) - 1)
	if b >= a {
		b++
	}
	return pool[a], pool[b]
}

// threshold samples a filter constant inside the central part of a range
// so comparisons select non-trivial subsets.
func threshold(rng *rand.Rand, r [2]int) int {
	lo := r[0] + (r[1]-r[0])/4
	hi := r[0] + 3*(r[1]-r[0])/4
	if hi <= lo {
		return r[0]
	}
	return lo + rng.Intn(hi-lo)
}

// span samples an ordered [a, b] interval inside a range.
func span(rng *rand.Rand, r [2]int) (int, int) {
	a := threshold(rng, r)
	b := a + 1 + rng.Intn(maxInt(1, (r[1]-a)))
	return a, b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func firstLetter(s string) string {
	if s == "" {
		return "A"
	}
	return strings.ToUpper(s[:1])
}

func esc(s string) string { return strings.ReplaceAll(s, "'", "''") }
