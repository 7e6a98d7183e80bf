// Command benchprofile is the repository's benchmark: one seeded harness
// that times the CycleSQL loop and its serving tier end to end and splits
// the time across the layers.
//
// Usage (from the repository root):
//
//	bash cmd/benchprofile/run.sh -seed 1                        # all workloads, both phases
//	bash cmd/benchprofile/run.sh --workload spider-dev --seed 3 --seconds 15 --trace 0
//	(cd cmd/benchprofile && go run . -seed 1 -json /tmp/out.json)
//
// Each workload builds its inputs from the seed, runs an untraced timed
// phase for the end-to-end metrics and, unless -trace 0, a traced phase
// for the per-layer metrics, checks every answer against a reference
// and prints every metric as "name value unit". The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; with -trace 0 its metrics are the end-to-end ones, with
// -trace 1 the per-layer ones, and by default both. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// config is one invocation's settings.
type config struct {
	workloads []workload
	seed      int64
	// seconds is the -seconds flag; untraced is the untraced phase's
	// length: all of it, or half with -trace 1, whose traced phase then
	// takes the rest (two quarters, see tracedPhase).
	seconds, untraced time.Duration
	// traced runs the traced phase after the untraced one; ladder runs
	// serve-open's rate ladder. Both are on by default; -trace 0 turns both
	// off, -trace 1 the ladder.
	traced, ladder bool
	// e2eJSON and layerJSON select which metrics the final JSON line holds.
	e2eJSON, layerJSON bool
	spansDir           string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchprofile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all of spider-dev, spider-sf5, serve-open, serve-writes)")
	seed := fs.Int64("seed", 1, "seed for example order and arrival schedules")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", -1, "0: untraced phase only, end-to-end metrics in the JSON line; 1: both phases, per-layer metrics in the JSON line (default: both phases, all metrics)")
	jsonOut := fs.String("json", "", "also write the full report to this file")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced phase writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), spansDir: *spans}
	cfg.untraced = cfg.seconds
	switch *trace {
	case 0:
		cfg.e2eJSON = true
	case 1:
		cfg.traced, cfg.layerJSON = true, true
		cfg.untraced = cfg.seconds / 2
	case -1:
		cfg.traced, cfg.ladder, cfg.e2eJSON, cfg.layerJSON = true, true, true, true
	default:
		fmt.Fprintf(stderr, "benchprofile: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "benchprofile: -seconds must be positive")
		return 2
	}
	cfg.workloads = workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchprofile:", err)
			return 2
		}
		cfg.workloads = []workload{w}
	}

	reports, err := runAll(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchprofile:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, reports); err != nil {
			fmt.Fprintln(stderr, "benchprofile:", err)
			return 1
		}
	}
	line := summary(reports, cfg)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchprofile:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

func runAll(ctx context.Context, cfg config, stdout io.Writer) ([]*report, error) {
	b := newBase()
	var reports []*report
	for _, w := range cfg.workloads {
		r, err := runWorkload(ctx, b, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		r.print(stdout)
		reports = append(reports, r)
	}
	return reports, nil
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's measurements. e2e and layers are the metrics
// BENCHMARK.json names; extra holds the ones only printed.
type report struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	E2E       []metric `json:"end_to_end"`
	Layers    []metric `json:"per_layer,omitempty"`
	Extra     []metric `json:"extra"`
	Notes     []string `json:"notes"`
}

func (r *report) e2e(name string, v float64, unit string) {
	r.E2E = append(r.E2E, metric{name, v, unit})
}
func (r *report) layer(name string, v float64, unit string) {
	r.Layers = append(r.Layers, metric{name, v, unit})
}
func (r *report) extra(name string, v float64, unit string) {
	r.Extra = append(r.Extra, metric{name, v, unit})
}
func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# workload %s correct %t attempted %d failed %d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, group := range [][]metric{r.E2E, r.Extra, r.Layers} {
		for _, m := range group {
			fmt.Fprintf(w, "%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
		}
	}
}

// resultLine is the final JSON line of standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds the reports into the result line. With one workload the
// metric names are bare; with several each is prefixed "workload/".
func summary(reports []*report, cfg config) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]resultMetric{}}
	for _, r := range reports {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(reports) > 1 {
			prefix = r.Workload + "/"
		}
		var ms []metric
		if cfg.e2eJSON {
			ms = append(ms, r.E2E...)
		}
		if cfg.layerJSON {
			ms = append(ms, r.Layers...)
		}
		for _, m := range ms {
			line.Metrics[prefix+m.Name] = resultMetric{m.Value, m.Unit}
		}
	}
	return line
}

func writeJSON(path string, reports []*report) error {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// heapMB is the live heap in megabytes. The second collection frees what
// the first only moved to the sync.Pool victim caches.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
