package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures")

// accept is the zero-cost verifier the protocol tests use; the parity
// test uses the frozen default verifier instead.
var accept = nli.Func{Label: "accept", Fn: func(context.Context, string, nli.Premise) bool { return true }}

// isolatedBench clones one Spider database into a fresh single-tenant
// benchmark, so tests that write (or that assert on snapshot epochs)
// cannot disturb — or be disturbed by — the process-wide memoized
// benchmark.
func isolatedBench(t testing.TB, dbName string) *datasets.Benchmark {
	t.Helper()
	src := datasets.Spider()
	b := &datasets.Benchmark{
		Name:      src.Name,
		Databases: map[string]*storage.Database{dbName: src.DB(dbName).Clone()},
	}
	for _, ex := range src.Dev {
		if ex.DBName == dbName {
			b.Dev = append(b.Dev, ex)
		}
	}
	if len(b.Dev) == 0 {
		t.Fatalf("no dev examples for %s", dbName)
	}
	return b
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Bench == nil {
		cfg.Bench = isolatedBench(t, "world_1")
	}
	if cfg.Verifier == nil {
		cfg.Verifier = accept
	}
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// volatile strips response fields that legitimately vary run to run so
// the rest of the body can be compared against a golden fixture byte for
// byte.
var volatile = regexp.MustCompile(`"(overhead_us|uptime_ms)": \d+`)

func checkGolden(t *testing.T, name string, status, wantStatus int, body []byte) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("%s: status = %d, want %d\nbody: %s", name, status, wantStatus, body)
	}
	got := volatile.ReplaceAll(body, []byte(`"$1": 0`))
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenProtocol locks the wire format: one fixture per terminal
// status the API can answer.
func TestGoldenProtocol(t *testing.T) {
	bench := isolatedBench(t, "world_1")
	q := "How many countries are in Africa?"

	t.Run("translate_ok", func(t *testing.T) {
		ts := newTestServer(t, Config{Bench: bench})
		status, hdr, body := post(t, ts, "/v1/world_1/translate",
			fmt.Sprintf(`{"question": %q}`, q))
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		checkGolden(t, "translate_ok", status, 200, body)
	})
	t.Run("bad_request", func(t *testing.T) {
		ts := newTestServer(t, Config{Bench: bench})
		status, _, body := post(t, ts, "/v1/world_1/translate", `{"question": 42}`)
		checkGolden(t, "bad_request", status, 400, body)
	})
	t.Run("unknown_tenant", func(t *testing.T) {
		ts := newTestServer(t, Config{Bench: bench})
		status, _, body := post(t, ts, "/v1/nope/translate", fmt.Sprintf(`{"question": %q}`, q))
		checkGolden(t, "unknown_tenant", status, 404, body)
	})
	t.Run("overloaded", func(t *testing.T) {
		// One slot, one queue seat, a verifier slow enough to hold them:
		// the third concurrent request must shed.
		ts := newTestServer(t, Config{
			Bench:       bench,
			Verifier:    nli.Latency{V: accept, D: 300 * time.Millisecond},
			MaxInflight: 1,
			MaxQueue:    1,
		})
		results := make(chan int, 3)
		var shedBody []byte
		var shedHdr http.Header
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, hdr, body := post(t, ts, "/v1/world_1/translate",
					fmt.Sprintf(`{"question": %q}`, q))
				if status == 429 {
					mu.Lock()
					shedBody, shedHdr = body, hdr
					mu.Unlock()
				}
				results <- status
			}()
			time.Sleep(50 * time.Millisecond) // deterministic arrival order
		}
		wg.Wait()
		close(results)
		counts := map[int]int{}
		for st := range results {
			counts[st]++
		}
		if counts[200] != 2 || counts[429] != 1 {
			t.Fatalf("status counts = %v, want 2x200 + 1x429", counts)
		}
		if ra := shedHdr.Get("Retry-After"); ra == "" {
			t.Fatal("429 must carry Retry-After")
		}
		checkGolden(t, "overloaded", 429, 429, shedBody)
	})
	t.Run("deadline", func(t *testing.T) {
		ts := newTestServer(t, Config{
			Bench:    bench,
			Verifier: nli.Latency{V: accept, D: time.Second},
		})
		status, _, body := post(t, ts, "/v1/world_1/translate",
			fmt.Sprintf(`{"question": %q, "timeout_ms": 50}`, q))
		checkGolden(t, "deadline", status, 504, body)
	})
}

func TestUnknownQuestionAndModel(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, _, body := post(t, ts, "/v1/world_1/translate", `{"question": "what is the meaning of life?"}`)
	if status != 400 || !strings.Contains(string(body), "benchmark book") {
		t.Fatalf("unknown question: %d %s", status, body)
	}
	status, _, body = post(t, ts, "/v1/world_1/translate", `{"question": "x", "model": "gpt-9"}`)
	if status != 400 || !strings.Contains(string(body), "unknown model") {
		t.Fatalf("unknown model: %d %s", status, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	bench := isolatedBench(t, "world_1")
	ts := newTestServer(t, Config{Bench: bench})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || health.Status != "ok" || health.Tenants != 1 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	// Two warm requests: the second must reuse both the snapshot pin and
	// the warm pipeline, and the histogram must hold both observations.
	q := bench.Dev[0].Question
	for i := 0; i < 2; i++ {
		if status, _, body := post(t, ts, "/v1/world_1/translate", fmt.Sprintf(`{"question": %q}`, q)); status != 200 {
			t.Fatalf("warmup %d: %d %s", i, status, body)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mv MetricsView
	if err := json.NewDecoder(resp.Body).Decode(&mv); err != nil {
		t.Fatal(err)
	}
	if mv.Requests.Total != 2 || mv.Requests.OK != 2 {
		t.Fatalf("requests = %+v", mv.Requests)
	}
	if mv.Snapshots.Pins != 2 || mv.Snapshots.Refreshes != 1 {
		t.Fatalf("snapshots = %+v (second request must reuse the pin)", mv.Snapshots)
	}
	if mv.Pipelines.Hits != 1 || mv.Pipelines.Misses != 1 {
		t.Fatalf("pipelines = %+v", mv.Pipelines)
	}
	var observed int64
	for _, b := range mv.Latency.Buckets {
		observed += b.Count
	}
	if observed+mv.Latency.Overflow != 2 {
		t.Fatalf("latency histogram holds %d+%d observations, want 2", observed, mv.Latency.Overflow)
	}
	if mv.Inflight != 0 || mv.Queued != 0 {
		t.Fatalf("gauges not drained: inflight=%d queued=%d", mv.Inflight, mv.Queued)
	}
}

// TestHTTPDirectParity drives every dev question (capped at 200) through
// the HTTP layer and through Pipeline.Translate directly, with the frozen
// default verifier, and requires bit-identical verdicts — the serving
// layer must add transport, not behavior. It loads the verifier rather
// than training it, so it runs under -short too (0.5 s on two cores).
func TestHTTPDirectParity(t *testing.T) {
	bench := datasets.Spider()
	lim := experiments.DefaultLimits
	verifier := experiments.Verifier(lim)
	ts := newTestServer(t, Config{Bench: bench, Verifier: verifier, Limits: lim})

	dev := bench.Dev
	if len(dev) > 200 {
		dev = dev[:200]
	}
	// The direct run shares nothing with the server but the verifier and
	// the immutable benchmark.
	p := lim.Pipeline(nl2sql.MustByName("resdsql-3b"), verifier, bench.Name, nil)
	p.BeamSize = 8
	for i, ex := range dev {
		status, _, body := post(t, ts, "/v1/"+ex.DBName+"/translate",
			fmt.Sprintf(`{"question": %q}`, ex.Question))
		if status != 200 {
			t.Fatalf("dev[%d] %s: %d %s", i, ex.Question, status, body)
		}
		var got TranslateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		res, err := p.Translate(t.Context(), ex, bench.DB(ex.DBName))
		if err != nil {
			t.Fatalf("direct dev[%d]: %v", i, err)
		}
		if got.SQL != res.FinalSQL || got.Verified != res.Verified ||
			got.Iterations != res.Iterations || got.Degraded != res.Degraded {
			t.Fatalf("dev[%d] %q parity broken:\n  http   %q verified=%v iter=%d\n  direct %q verified=%v iter=%d",
				i, ex.Question, got.SQL, got.Verified, got.Iterations,
				res.FinalSQL, res.Verified, res.Iterations)
		}
	}
}

// TestSnapshotIsolationUnderLoad floods the server while writers churn
// the live store; run with -race. Every request must answer 200 (reads
// are never torn by the copy-on-write swaps) and the snapshot hit rate
// must stay below 1 (writes really did force re-pins).
func TestSnapshotIsolationUnderLoad(t *testing.T) {
	bench := isolatedBench(t, "world_1")
	db := bench.DB("world_1")
	srv := New(Config{Bench: bench, Verifier: accept, MaxInflight: 8, MaxQueue: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Seed row to re-insert: read it before any writer starts.
	rel := db.Table("country")
	if rel == nil || len(rel.Rows) == 0 {
		t.Fatal("world_1 has no country rows")
	}
	seed := rel.Rows[0].Clone()

	stop := make(chan struct{})
	var writerErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.Insert("country", seed.Clone()); err != nil {
					writerErr.Store(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	q := bench.Dev[0].Question
	var reqWG sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		reqWG.Add(1)
		go func() {
			defer reqWG.Done()
			for i := 0; i < 8; i++ {
				status, _, body := post(t, ts, "/v1/world_1/translate",
					fmt.Sprintf(`{"question": %q}`, q))
				if status != 200 {
					errs <- fmt.Sprintf("status %d: %s", status, body)
					return
				}
			}
		}()
	}
	reqWG.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if err := writerErr.Load(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	pins, refreshes := srv.metrics.snapPins.Load(), srv.metrics.snapRefreshes.Load()
	if pins != 64 {
		t.Fatalf("pins = %d, want 64", pins)
	}
	if refreshes < 2 {
		t.Fatalf("refreshes = %d; concurrent writers must have moved the epoch", refreshes)
	}
}

// TestClientDisconnectAbortsWork cancels a request mid-flight and
// checks the slot drains and the cancel is accounted.
func TestClientDisconnectAbortsWork(t *testing.T) {
	bench := isolatedBench(t, "world_1")
	srv := New(Config{
		Bench:    bench,
		Verifier: nli.Latency{V: accept, D: 5 * time.Second},
		Timeout:  time.Minute,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest("POST", ts.URL+"/v1/world_1/translate",
		strings.NewReader(fmt.Sprintf(`{"question": %q}`, bench.Dev[0].Question)))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 200 * time.Millisecond}
	if _, err := client.Do(req); err == nil {
		t.Fatal("expected client-side timeout")
	}
	// The handler observes the disconnect through the request context;
	// give it a moment to unwind, then the slot must be free.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.metrics.inflight.Load() == 0 && srv.metrics.canceled.Load() == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("disconnect not drained: inflight=%d canceled=%d",
		srv.metrics.inflight.Load(), srv.metrics.canceled.Load())
}

// TestExplainPlanMatchesFreshExecutor checks that the plan an explain
// request renders on its pipeline's warm executor is byte-identical to
// the one a fresh executor renders on the request's snapshot, across
// repeated questions (the final SQL's plan already cached) and across a
// write that re-pins the snapshot half-way.
func TestExplainPlanMatchesFreshExecutor(t *testing.T) {
	bench := isolatedBench(t, "world_1")
	srv := New(Config{Bench: bench, Verifier: accept})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	dev := bench.Dev
	for i, ex := range dev {
		if i == len(dev)/2 {
			bench.DB("world_1").Mutate(func(string, sqltypes.Row) {})
		}
		for range 2 {
			status, _, body := post(t, ts, "/v1/world_1/translate",
				fmt.Sprintf(`{"question": %q, "explain": true}`, ex.Question))
			if status != 200 {
				t.Fatalf("status = %d: %s", status, body)
			}
			var got TranslateResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			snap := srv.tenants["world_1"].snap.Load()
			if snap.Epoch() != got.SnapshotEpoch {
				t.Fatalf("%q answered on epoch %d, the tenant holds %d", ex.Question, got.SnapshotEpoch, snap.Epoch())
			}
			want, err := sqleval.New(snap.DB()).ExplainPlan(context.Background(), sqlparse.MustParse(got.SQL))
			if err != nil {
				t.Fatal(err)
			}
			if got.Plan != want {
				t.Fatalf("%q: warm-executor plan differs from a fresh executor's:\n got %s\nwant %s", ex.Question, got.Plan, want)
			}
		}
	}
}

// TestTranslateExplain exercises the explain field: a request with
// "explain": true answers with the final SQL's rendered plan tree —
// access paths with estimated and actual row counts, planned against the
// request's pinned snapshot — while requests without it omit the field.
func TestTranslateExplain(t *testing.T) {
	bench := isolatedBench(t, "world_1")
	ts := newTestServer(t, Config{Bench: bench})
	q := "How many countries are in Africa?"

	status, _, body := post(t, ts, "/v1/world_1/translate",
		fmt.Sprintf(`{"question": %q, "explain": true}`, q))
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	var got TranslateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Plan == "" {
		t.Fatalf("explain request answered without a plan: %s", body)
	}
	if !strings.Contains(got.Plan, "est=") || !strings.Contains(got.Plan, "act=") {
		t.Fatalf("plan lacks estimate/actual annotations:\n%s", got.Plan)
	}

	status, _, body = post(t, ts, "/v1/world_1/translate",
		fmt.Sprintf(`{"question": %q}`, q))
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	if bytes.Contains(body, []byte(`"plan"`)) {
		t.Fatalf("plan field must be omitted when not requested: %s", body)
	}
}
