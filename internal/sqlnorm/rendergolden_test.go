package sqlnorm_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlgen"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
)

var updateRender = flag.Bool("update", false, "rewrite the render golden")

const renderGolden = "testdata/render.golden"

// TestRenderGolden pins both renderings the rest of the system keys on
// — SelectStmt.SQL(), which the verifier premise carries, and
// sqlnorm.CacheKey, which keys the executor's plan cache — for the 270
// Spider dev gold statements, the 480 sqlgen property queries and the
// front-end fuzz seeds. Any change to how the dialect is spelled shows
// up as a textual diff and fails CI until deliberately regenerated with
//
//	go test ./internal/sqlnorm -run TestRenderGolden -update
//
// The key's '\x00' label separators are written as the four characters
// \x00 so the file stays line-oriented text.
func TestRenderGolden(t *testing.T) {
	var b strings.Builder
	pin := func(label string, stmt *sqlast.SelectStmt) {
		key := strings.ReplaceAll(sqlnorm.CacheKey(stmt), "\x00", `\x00`)
		fmt.Fprintf(&b, "-- %s\nsql: %s\nkey: %s\n", label, stmt.SQL(), key)
	}

	dev := datasets.Spider().Dev
	if len(dev) < 270 {
		t.Fatalf("dev set shrank: %d examples", len(dev))
	}
	for i, ex := range dev {
		pin(fmt.Sprintf("dev q%d %s", i, ex.DBName), ex.Gold)
	}

	props := sqlgen.PropertyQueries()
	if len(props) != sqlgen.SingleTableCount+sqlgen.JoinCount {
		t.Fatalf("property corpus has %d queries, want %d", len(props), sqlgen.SingleTableCount+sqlgen.JoinCount)
	}
	for i, q := range props {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatalf("property query %d %q: %v", i, q, err)
		}
		pin(fmt.Sprintf("property q%d", i), stmt)
	}

	seeds := fuzzSeeds(t)
	for _, s := range seeds {
		stmt, err := sqlparse.Parse(s.sql)
		if err != nil {
			fmt.Fprintf(&b, "-- fuzz seed %s\nrejected: %q\n", s.name, s.sql)
			continue
		}
		pin("fuzz seed "+s.name, stmt)
	}

	for i, q := range canonicalCases {
		pin(fmt.Sprintf("canonical q%d", i), sqlparse.MustParse(q))
	}

	got := b.String()
	if *updateRender {
		if err := os.MkdirAll(filepath.Dir(renderGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(renderGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(renderGolden)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", renderGolden, err)
	}
	if got != string(want) {
		t.Errorf("render drift: regenerate with -update if deliberate\n%s", firstDiff(got, string(want)))
	}
}

// canonicalCases exercise each canonical-form rule where the corpora
// above are thin: conjunct sorting at two WHERE depths, OR conjuncts,
// orientation in ON and HAVING but not in a subquery's projection, and
// identifier folding in every identifier position, non-ASCII included.
var canonicalCases = []string{
	"SELECT Name FROM Singer WHERE Z = 1 AND (a = 2 OR b = 3) AND id IN (SELECT Sid FROM Song WHERE Y > 2 AND 5 < X AND (p = 1 OR q = 2))",
	"SELECT T1.Name, count(*) AS Cnt FROM Singer AS T1 JOIN Song AS T2 ON 3 = T2.Sid AND T1.Id = T2.Sid WHERE 10 <= T2.Year GROUP BY T1.Name HAVING 1 < count(*) ORDER BY Cnt DESC LIMIT 3",
	"SELECT (SELECT 5 > a FROM u WHERE 7 = b), X.* FROM (SELECT * FROM V WHERE 2 >= c AND d = 1) AS X WHERE NOT EXISTS (SELECT 1 FROM W WHERE e = 1 AND 4 <> f)",
	"SELECT a - (b - c), -(a + b), NOT (a = 1 OR b = 2) FROM t WHERE a BETWEEN 1 AND 2 AND s NOT LIKE 'x%' AND g IS NULL",
	"SELECT `Ünit`, `ßeta` FROM `Tëst` WHERE `Ünit` = 'Ä' AND 1 = 1",
	"SELECT a FROM t WHERE b = 1 OR c = 2",
	"SELECT a FROM t WHERE (b = 1 AND c = 2) OR d = 3 INTERSECT SELECT A FROM T WHERE D = 3 AND 2 = C",
}

type fuzzSeed struct{ name, sql string }

// fuzzSeeds reads the FuzzCacheKey seed corpus that the front-end
// differential harness keeps in Go's fuzz corpus format, in file-name
// order.
func fuzzSeeds(t *testing.T) []fuzzSeed {
	t.Helper()
	dir := filepath.Join("..", "frontdiff", "testdata", "fuzz", "FuzzCacheKey")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []fuzzSeed
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "string(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-string fuzz corpus entry", e.Name())
		}
		sql, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		seeds = append(seeds, fuzzSeed{e.Name(), sql})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].name < seeds[j].name })
	if len(seeds) == 0 {
		t.Fatalf("no fuzz seeds under %s", dir)
	}
	return seeds
}

// firstDiff renders the first few differing lines of two goldens.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g == w {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  got:  %s\n  want: %s\n", i+1, g, w)
		if shown++; shown >= 5 {
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}
