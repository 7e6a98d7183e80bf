package experiments_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cyclesql/internal/cliconf"
	"cyclesql/internal/experiments"
)

var updatePaper = flag.Bool("update", false, "rewrite the paper golden")

const paperGolden = "testdata/paper.golden"

// wallClockColumns are the cells that come from measured wall-clock time
// rather than from the computation: Fig 8b adds the loop's measured
// overhead to each model's documented latency. They vary from run to run
// at any worker count, so the golden masks them.
var wallClockColumns = map[string][]string{
	"fig8b": {"+cyclesql (ms)", "overhead (ms)"},
}

// paperTables regenerates every paper artifact in presentation order, the
// way `cmd/benchmark -exp all` does, and renders them into one text with
// the wall-clock columns masked.
func paperTables(t *testing.T, lim experiments.Limits) string {
	t.Helper()
	var b strings.Builder
	for _, e := range experiments.Registry {
		table, err := e.Run(context.Background(), lim)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, header := range wallClockColumns[e.ID] {
			col := -1
			for i, h := range table.Headers {
				if h == header {
					col = i
				}
			}
			if col < 0 {
				t.Fatalf("%s: no column %q to mask in %v", e.ID, header, table.Headers)
			}
			for r := range table.Rows {
				table.Rows[r].Values[col] = "(wall-clock)"
			}
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", e.ID, table)
	}
	return b.String()
}

// TestPaperTablesGolden pins every cell of the paper's regenerated tables
// and figures (Table I–IV, Fig 1, 8a, 8b, 9 and 10) at the command-line
// default limits, except Fig 8b's two wall-clock columns. The sweep runs
// at workers 1 and 2, and both must match the golden: per-example outcomes
// fold in example order, so no aggregate may depend on the worker count.
// Any change that moves a table shows up here. Regenerate deliberately
// with
//
//	go test ./internal/experiments -run TestPaperTablesGolden -update
//
// -update writes the workers-1 tables and still checks workers 2 against
// them. The test takes about 25 s on two cores, and about 3 minutes under
// -race, where it is skipped.
func TestPaperTablesGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("regenerating every table twice takes minutes under -race")
	}
	base := cliconf.Default().Build().Limits
	want, err := os.ReadFile(paperGolden)
	if err != nil && !*updatePaper {
		t.Fatalf("missing golden %s (regenerate with -update): %v", paperGolden, err)
	}
	for _, workers := range []int{1, 2} {
		lim := base
		lim.Workers = workers
		got := paperTables(t, lim)
		if *updatePaper && workers == 1 {
			if err := os.WriteFile(paperGolden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			want = []byte(got)
			continue
		}
		if got != string(want) {
			t.Errorf("paper tables drift at workers %d: regenerate with -update if deliberate\n%s",
				workers, firstLineDiff(got, string(want)))
		}
	}
}

// firstLineDiff renders the first few differing lines of two texts, enough
// to see which cells moved without dumping every table.
func firstLineDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; (i < len(gl) || i < len(wl)) && shown < 8; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			fmt.Fprintf(&b, "line %d:\n  got:  %s\n  want: %s\n", i+1, g, w)
			shown++
		}
	}
	return b.String()
}
