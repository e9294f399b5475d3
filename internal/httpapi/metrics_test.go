package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/obs"
	"vzlens/internal/resultstore"
	"vzlens/internal/world"
)

// TestMetricsEndpointAfterWarmedCampaign is the acceptance check for
// the observability layer: after one campaign-backed experiment is
// served, /metrics must expose the admission gate, singleflight,
// result store, and campaign engine families with non-trivial values.
func TestMetricsEndpointAfterWarmedCampaign(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var spans bytes.Buffer
	h := NewWithOptions(mustBuild(world.Config{Step: 6}), Options{
		MaxInFlight: 4,
		Store:       store,
		Tracer:      obs.NewTracer(&spans),
	})

	// fig12 simulates the trace campaign, fig6 the chaos sweep; the
	// second fig12 hit is served from the in-process memo.
	for _, path := range []string{"/api/experiments/fig12", "/api/experiments/fig6", "/api/experiments/fig12"} {
		rec := do(t, h, http.MethodGet, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("X-Trace-Id") == "" {
			t.Errorf("GET %s: missing X-Trace-Id with tracing enabled", path)
		}
	}

	rec := do(t, h, http.MethodGet, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		// Handler + gate.
		`vz_http_requests_total{class="experiment"} 3`,
		`vz_http_responses_total{code="2xx"}`,
		"vz_gate_inflight 0",
		"vz_gate_queue_wait_seconds_count 3",
		// Singleflight: three experiment requests, two leaders (the
		// repeat was sequential and answered from the memo, ahead of
		// the flight).
		"vz_flight_leaders_total 2",
		"vz_flight_followers_total 0",
		// Read-through layers: two computations, one memo hit.
		`vz_experiment_source_total{source="compute"} 2`,
		`vz_experiment_source_total{source="memo"} 1`,
		`vz_experiment_source_total{source="store"} 0`,
		// Result store: two campaign persists + two table persists; the
		// memo answered the repeat, so no get hit.
		"vz_resultstore_puts_total 4",
		"vz_resultstore_hits_total 0",
		// Campaign engine: each campaign simulated exactly once.
		`vz_campaign_runs_total{campaign="trace"} 1`,
		`vz_campaign_runs_total{campaign="chaos"} 1`,
		`vz_campaign_month_seconds_count{campaign="trace"}`,
		`vz_campaign_last_run_seconds{campaign="trace"}`,
		`vz_campaign_worker_utilization{campaign="chaos"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The JSON rendering serves the same registry.
	rec = do(t, h, http.MethodGet, "/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics.json = %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/metrics.json is not JSON: %v", err)
	}
	if got := doc[`vz_campaign_runs_total{campaign="trace"}`]; got != float64(1) {
		t.Errorf("JSON trace runs = %v, want 1", got)
	}

	// Trace propagation: the request that paid for the trace campaign
	// must own the campaign's spans — http.request, experiment,
	// campaign.trace, and campaign.month all on one trace ID.
	type spanLine struct {
		Trace string `json:"trace"`
		Name  string `json:"name"`
	}
	byName := map[string][]string{}
	dec := json.NewDecoder(&spans)
	for dec.More() {
		var s spanLine
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("span output: %v", err)
		}
		byName[s.Name] = append(byName[s.Name], s.Trace)
	}
	for _, name := range []string{"http.request", "experiment", "campaign.trace", "campaign.chaos", "campaign.month"} {
		if len(byName[name]) == 0 {
			t.Errorf("no %q span emitted", name)
		}
	}
	if len(byName["campaign.trace"]) == 1 && len(byName["campaign.month"]) > 0 {
		campaignTrace := byName["campaign.trace"][0]
		found := false
		for _, id := range byName["http.request"] {
			if id == campaignTrace {
				found = true
			}
		}
		if !found {
			t.Errorf("campaign.trace trace ID %s does not match any http.request trace %v",
				campaignTrace, byName["http.request"])
		}
	}
}

// TestMetricsCriticalUnderSaturation proves a scrape survives a
// saturated gate: with every slot held, /metrics still answers 200
// because it classifies as critical.
func TestMetricsCriticalUnderSaturation(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	h := NewWithOptions(mustBuild(world.Config{Step: 12}), Options{
		MaxInFlight: 1,
		MaxQueue:    1,
		TraceCampaign: func() (*atlas.TraceCampaign, error) {
			<-block
			return syntheticTrace(), nil
		},
	})
	defer once.Do(func() { close(block) })

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		do(t, h, http.MethodGet, "/api/experiments/fig12")
	}()
	<-started
	// Wait for the slot to be taken, then scrape.
	for h.gate.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	rec := do(t, h, http.MethodGet, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics under saturation = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "vz_gate_inflight 1") {
		t.Errorf("scrape does not show the held slot:\n%s", rec.Body.String())
	}
	once.Do(func() { close(block) })
	<-done
}
