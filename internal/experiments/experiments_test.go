package experiments

import (
	"context"
	"strings"
	"testing"
)

// tinyLimits keeps unit-test experiment runs fast; bench_test.go exercises
// larger budgets.
var tinyLimits = Limits{
	MaxDev:      40,
	MaxTrain:    120,
	TrainModels: []string{"resdsql-3b", "gpt-3.5-turbo"},
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"fig1", "table1", "table2", "fig8a", "fig8b", "fig9", "table3", "table4", "fig10"}
	if len(Registry) != len(want) {
		t.Fatalf("registry lists %d experiments, want %d", len(Registry), len(want))
	}
	for i, id := range want {
		if Registry[i].ID != id || Registry[i].Run == nil {
			t.Fatalf("registry entry %d is %q, want %s in presentation order", i, Registry[i].ID, id)
		}
		if e, ok := Lookup(id); !ok || e.ID != id {
			t.Fatalf("Lookup(%q) = %q, %v", id, e.ID, ok)
		}
	}
	if _, ok := Lookup("table5"); ok {
		t.Fatal("Lookup must reject an unknown ID")
	}
}

func TestFig1MonotoneInBeamSize(t *testing.T) {
	table, err := Fig1(context.Background(), tinyLimits)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		prev := -1.0
		for _, cell := range row.Values {
			v := firstFloatCell(cell)
			if v+1e-9 < prev {
				t.Fatalf("%s: any-beam accuracy must be monotone: %v", row.Label, row.Values)
			}
			prev = v
		}
	}
}

func TestTable4ContainsCaseStudy(t *testing.T) {
	table, err := Table4(context.Background(), tinyLimits)
	if err != nil {
		t.Fatal(err)
	}
	text := table.String()
	for _, want := range []string{"Aruba", "Anguilla", "English", "French"} {
		if !strings.Contains(text, want) {
			t.Fatalf("case study missing %q:\n%s", want, text)
		}
	}
	if len(table.Rows) != 2*5 {
		t.Fatalf("expected 5 question+explanation row pairs, got %d rows", len(table.Rows))
	}
}

func TestFig10PrefersCycleSQL(t *testing.T) {
	table, err := Fig10(context.Background(), tinyLimits)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, row := range table.Rows {
		if row.Values[0] != string("overall") {
			continue
		}
		simple := firstFloatCell(row.Values[1])
		cycle := firstFloatCell(row.Values[2])
		if cycle > simple {
			wins++
		}
	}
	if wins < 3 {
		t.Fatalf("cyclesql must win most overall ratings, won %d/5:\n%s", wins, table.String())
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		Title:   "T",
		Headers: []string{"a", "b"},
		Rows:    []Row{{Label: "x", Values: []string{"1", "2"}}},
	}
	s := table.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "x") || !strings.Contains(s, "2") {
		t.Fatalf("render: %q", s)
	}
}

func TestDeltaFormatting(t *testing.T) {
	if got := delta(82.0, 79.4); got != "82.0(+2.6)" {
		t.Fatalf("delta = %q", got)
	}
	if got := delta(70.0, 71.0); got != "70.0(-1.0)" {
		t.Fatalf("delta = %q", got)
	}
	if got := delta(70.0, 70.0); got != "70.0" {
		t.Fatalf("delta = %q", got)
	}
}

func firstFloatCell(cell string) float64 {
	end := 0
	for end < len(cell) && (cell[end] == '.' || cell[end] >= '0' && cell[end] <= '9') {
		end++
	}
	var v float64
	for i := 0; i < end; i++ {
		if cell[i] == '.' {
			frac := 0.1
			for j := i + 1; j < end; j++ {
				v += float64(cell[j]-'0') * frac
				frac /= 10
			}
			break
		}
		v = v*10 + float64(cell[i]-'0')
	}
	return v
}
