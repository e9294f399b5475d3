package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/resultstore"
	"vzlens/internal/world"
)

// goldenDocs renders every experiment's JSON and CSV document from the
// golden snapshots, keyed by request path.
func goldenDocs(t *testing.T) map[string][]byte {
	t.Helper()
	docs := map[string][]byte{}
	for _, id := range core.ExperimentIDs() {
		snap, err := os.ReadFile(filepath.Join("..", "golden", "testdata", "golden", id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc tableJSON
		if err := json.Unmarshal(snap, &doc); err != nil {
			t.Fatalf("%s snapshot: %v", id, err)
		}
		table := core.Table{Caption: doc.Caption, Header: doc.Header, Rows: doc.Rows}
		docs["/api/experiments/"+id] = snap
		docs["/api/experiments/"+id+".csv"] = []byte(table.CSV())
	}
	return docs
}

// metricsBody scrapes h's /metrics exposition.
func metricsBody(t *testing.T, h *Handler) string {
	t.Helper()
	rec := do(t, h, http.MethodGet, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestMemoConcurrentGoldenDocuments drives a cold handler with every
// experiment document from 16 goroutines, each pass covering all 22
// experiments × {JSON, CSV} twice. Every body must equal the golden
// snapshot's rendering, and every experiment must be computed by
// exactly one flight leader: coalesced requests share the leader's
// bytes, later ones read the memo, and a request that raced a leader's
// fill is answered from the memo, not recomputed.
func TestMemoConcurrentGoldenDocuments(t *testing.T) {
	h := New(mustBuild(world.Config{Step: 6}))
	docs := goldenDocs(t)
	if len(docs) != 44 {
		t.Fatalf("golden documents = %d, want 22 experiments × 2", len(docs))
	}
	paths := make([]string, 0, len(docs))
	for p := range docs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const clients, passes = 16, 2
	var wg sync.WaitGroup
	errs := make(chan error, clients*passes*len(paths))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < passes*len(paths); i++ {
				// Staggered starts: clients collide on different
				// documents, cold and warm.
				path := paths[(c*5+i)%len(paths)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
				} else if !bytes.Equal(rec.Body.Bytes(), docs[path]) {
					errs <- fmt.Errorf("GET %s: body differs from the golden rendering", path)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := h.met.leaders.Value(); got != 22 {
		t.Errorf("flight leaders = %d, want exactly 22 (one per experiment)", got)
	}
	var answered uint64
	for _, c := range h.met.sources {
		answered += c.Value()
	}
	if want := uint64(clients * passes * len(paths)); answered != want {
		t.Errorf("experiment answers by source sum to %d, want %d", answered, want)
	}
	// Each client's second pass starts after its first pass saw every
	// document answered, so all of it is served from the memo.
	if memo := h.met.sources[srcMemo].Value(); memo < clients*uint64(len(paths)) {
		t.Errorf("memo hits = %d, want at least %d", memo, clients*len(paths))
	}
	body := metricsBody(t, h)
	for _, want := range []string{
		"vz_flight_leaders_total 22",
		`vz_campaign_runs_total{campaign="trace"} 1`,
		`vz_campaign_runs_total{campaign="chaos"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMemoLeaderRechecksMemo pins the race the concurrent test can
// only hit by chance: a request that missed the memo reaches the flight
// after the previous leader filled it. Its fill must answer from the
// memo instead of recomputing.
func TestMemoLeaderRechecksMemo(t *testing.T) {
	var calls atomic.Int64
	h := NewWithOptions(mustBuild(world.Config{Step: 12}), Options{
		TraceCampaign: func() (*atlas.TraceCampaign, error) {
			calls.Add(1)
			return syntheticTrace(), nil
		},
	})
	if rec := do(t, h, http.MethodGet, "/api/experiments/fig12"); rec.Code != http.StatusOK {
		t.Fatalf("GET fig12 = %d", rec.Code)
	}
	res, err := h.fillExperiment(context.Background(), h.exps["fig12"])
	if err != nil || res.src != srcMemo || res.doc != h.memo.get("fig12") {
		t.Fatalf("late leader fill = (%v, %v), want the memoized document", sourceNames[res.src], err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("trace simulations = %d, want 1", got)
	}
}

// TestMemoNeverStoresFailures pins that only successful renderings are
// memoized: a transient campaign failure answers 503 and leaves the
// memo empty, the retry computes, answers 200, and memoizes; 400 and
// 404 answers never reach the memo.
func TestMemoNeverStoresFailures(t *testing.T) {
	var calls atomic.Int64
	h := NewWithOptions(mustBuild(world.Config{Step: 12}), Options{
		TraceCampaign: func() (*atlas.TraceCampaign, error) {
			if calls.Add(1) == 1 {
				return nil, errors.New("collector unreachable")
			}
			return syntheticTrace(), nil
		},
	})

	rec := do(t, h, http.MethodGet, "/api/experiments/fig12")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("first GET = %d, want 503", rec.Code)
	}
	if h.memo.get("fig12") != nil {
		t.Fatal("a failed computation was memoized")
	}
	if st := rec.Header().Get("Server-Timing"); st != "" {
		t.Errorf("503 carries Server-Timing %q", st)
	}
	for i, c := range h.met.sources {
		if c.Value() != 0 {
			t.Errorf("source %s counted a failed answer", sourceNames[i])
		}
	}

	rec = do(t, h, http.MethodGet, "/api/experiments/fig12.csv")
	if rec.Code != http.StatusOK {
		t.Fatalf("retry = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if st := rec.Header().Get("Server-Timing"); st != "source;desc=compute" {
		t.Errorf("retry Server-Timing = %q, want the compute layer", st)
	}
	doc := h.memo.get("fig12")
	if doc == nil || !bytes.Equal(doc.csv, rec.Body.Bytes()) {
		t.Fatal("the successful retry was not memoized")
	}

	rec = do(t, h, http.MethodGet, "/api/experiments/fig12")
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), doc.json) {
		t.Fatalf("memoized GET = %d, body matches memo: %v", rec.Code, bytes.Equal(rec.Body.Bytes(), doc.json))
	}
	if st := rec.Header().Get("Server-Timing"); st != "source;desc=memo" {
		t.Errorf("memo hit Server-Timing = %q", st)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("memo hit Content-Type = %q", ct)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("trace simulations = %d, want 2 (one failure, one retry)", got)
	}

	for path, code := range map[string]int{
		"/api/countries/ZZ":     http.StatusNotFound,
		"/api/countries/US":     http.StatusNotFound,
		"/api/countries/usa":    http.StatusBadRequest,
		"/api/experiments/nope": http.StatusNotFound,
	} {
		if rec := do(t, h, http.MethodGet, path); rec.Code != code {
			t.Errorf("GET %s = %d, want %d", path, rec.Code, code)
		}
	}
	for _, key := range []string{countryKey("ZZ"), countryKey("US"), countryKey("USA"), "nope"} {
		if h.memo.get(key) != nil {
			t.Errorf("error answer memoized under %q", key)
		}
	}
}

// TestMemoCountriesAndSignatures pins that the other pure-of-world
// documents memoize their 200 answers and serve them byte-identically.
func TestMemoCountriesAndSignatures(t *testing.T) {
	h := New(testHandler.w)
	for path, key := range map[string]string{
		"/api/countries/ve": countryKey("VE"),
		"/api/signatures":   signaturesKey,
	} {
		first := do(t, h, http.MethodGet, path)
		if first.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, first.Code)
		}
		doc := h.memo.get(key)
		if doc == nil || !bytes.Equal(doc.json, first.Body.Bytes()) {
			t.Fatalf("GET %s: 200 answer not memoized under %q", path, key)
		}
		again := do(t, h, http.MethodGet, path)
		if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("GET %s: memoized answer differs", path)
		}
		if ct := again.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("GET %s: memoized Content-Type = %q", path, ct)
		}
	}
}

// TestMemoRestartReadsStoreThenMemo reopens a result store a first
// handler filled: the restarted handler answers its first GET from the
// store and the second from the memo, without simulating anything.
func TestMemoRestartReadsStoreThenMemo(t *testing.T) {
	dir := t.TempDir()
	w := mustBuild(world.Config{Step: 12})
	open := func() *Handler {
		store, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewWithOptions(w, Options{Store: store})
	}
	const path = "/api/experiments/fig12"
	want := do(t, open(), http.MethodGet, path)
	if want.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, want.Code)
	}

	h := open()
	for _, layer := range []string{"store", "memo"} {
		rec := do(t, h, http.MethodGet, path)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("GET %s after restart = %d, identical: %v", path, rec.Code, bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()))
		}
		if st := rec.Header().Get("Server-Timing"); st != "source;desc="+layer {
			t.Errorf("Server-Timing = %q, want the %s layer", st, layer)
		}
	}
	body := metricsBody(t, h)
	for _, want := range []string{
		`vz_experiment_source_total{source="store"} 1`,
		`vz_experiment_source_total{source="memo"} 1`,
		`vz_experiment_source_total{source="compute"} 0`,
		`vz_campaign_runs_total{campaign="trace"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMemoCoordinatorReadsThroughCluster pins the cluster layer of the
// chain: a coordinator's first GET is proxied to the owning worker and
// answers the worker's bytes; its second is a memo hit.
func TestMemoCoordinatorReadsThroughCluster(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(nil)
	self := "http://" + srv.Listener.Addr().String()
	worker := NewWithOptions(testHandler.w, Options{Store: store, ClusterRole: "worker", ClusterSelf: self})
	srv.Config.Handler = worker
	srv.Start()
	t.Cleanup(func() { srv.Close(); worker.Close() })
	co := NewWithOptions(testHandler.w, Options{ClusterRole: "coordinator", ClusterPeers: []string{self}})
	t.Cleanup(co.Close)

	const path = "/api/experiments/fig8"
	want := do(t, worker, http.MethodGet, path)
	for _, layer := range []string{"cluster", "memo"} {
		rec := do(t, co, http.MethodGet, path)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("coordinator GET %s = %d, identical to the worker's: %v", path, rec.Code, bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()))
		}
		if st := rec.Header().Get("Server-Timing"); st != "source;desc="+layer {
			t.Errorf("Server-Timing = %q, want the %s layer", st, layer)
		}
	}
	body := metricsBody(t, co)
	for _, want := range []string{
		`vz_experiment_source_total{source="cluster"} 1`,
		`vz_experiment_source_total{source="memo"} 1`,
		`vz_experiment_source_total{source="compute"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
