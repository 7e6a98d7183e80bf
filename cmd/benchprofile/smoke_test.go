package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test holds the output to.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runJSON runs the benchmark with args and decodes its last output line.
func runJSON(t *testing.T, args ...string) resultLine {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append(args, "-spans", t.TempDir()), &out, &errb); code != 0 {
		t.Fatalf("benchprofile %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// TestSmokeEveryWorkload runs every workload for about a second, both
// phases, and checks the result line carries every metric BENCHMARK.json
// names, with its unit, and that BENCHMARK.json names only workloads the
// benchmark has.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	res := runJSON(t, "-seconds", "1", "-seed", "5")
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("correct %t, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	bench := readBenchmarkFile(t)
	for _, w := range bench.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			got, ok := res.Metrics[w.name+"/"+m.Name]
			switch {
			case !ok:
				t.Errorf("%s: end-to-end metric %s missing", w.name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
			case got.Value <= 0:
				t.Errorf("%s: %s = %g, end-to-end metrics are never 0", w.name, m.Name, got.Value)
			}
		}
		for _, m := range bench.PerLayer {
			if got, ok := res.Metrics[w.name+"/"+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s missing or unit %q, want %q", w.name, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

// TestAllocCountsRepeat runs the traced phase twice with different seeds
// and lengths: the replay's allocation counts must be identical.
func TestAllocCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs spider-dev twice")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random")
	}
	a := runJSON(t, "-workload", "spider-dev", "-seconds", "0.5", "-seed", "1", "-trace", "1")
	b := runJSON(t, "-workload", "spider-dev", "-seconds", "1", "-seed", "2", "-trace", "1")
	n := 0
	for name, m := range a.Metrics {
		if !strings.HasSuffix(name, ".allocs") {
			continue
		}
		n++
		if m.Value <= 0 || b.Metrics[name] != m {
			t.Errorf("%s: %g then %g", name, m.Value, b.Metrics[name].Value)
		}
	}
	if n == 0 {
		t.Fatal("no allocation counts in the per-layer output")
	}
	if _, ok := a.Metrics["cpu_ms_per_request"]; ok {
		t.Error("-trace 1 printed end-to-end metrics in the result line")
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-trace", "2"}, {"-workload", "nope"}, {"-seconds", "0"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
