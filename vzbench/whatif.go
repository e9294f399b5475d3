package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/httpapi"
	"vzlens/internal/months"
	"vzlens/internal/resultstore"
	"vzlens/internal/scenario"
	"vzlens/internal/sweep"
)

const (
	// whatifSweeps bounds the generated sweep requests; a run posts
	// them in order until its time is up.
	whatifSweeps = 64
	// whatifPoll is how often the writer polls its sweep's status.
	whatifPoll = 20 * time.Millisecond
	// whatifRunSpecs is how many specs the traced run times through
	// Engine.RunWith on its own.
	whatifRunSpecs = 3
	// whatifServeOps caps the reader requests the traced run replays.
	whatifServeOps = 2000
)

// whatifServerFlags run a sweep one spec at a time on one campaign
// worker, so the sweep holds one of the two cores and the reader and
// its server goroutine share the other. With specs on both cores the
// reader's latency is set by when the Go scheduler preempts a spec, and
// its median sits on the step between the requests that found a free
// core and those that did not.
var whatifServerFlags = []string{"-sweep-workers", "1", "-workers", "1"}

// whatifRequests draws the sweep sequence: root_each over one seeded
// letter (one spec per Venezuelan candidate city) in a seeded 12-month
// window inside the CHAOS campaign.
func whatifRequests(seed int64) []sweep.Request {
	rng := rand.New(rand.NewSource(seed))
	first := months.New(2016, time.January)
	reqs := make([]sweep.Request, whatifSweeps)
	for i := range reqs {
		from := first.Add(rng.Intn(8 * 12))
		reqs[i] = sweep.Request{
			ID:      fmt.Sprintf("bench-%d", i),
			Family:  sweep.FamilyRootEach,
			Letters: []string{dnsroot.Letters()[rng.Intn(13)].String()},
			From:    from.String(),
			Until:   from.Add(12).String(),
		}
	}
	return reqs
}

// readerOp is one request of the reading client: a country summary or
// the running sweep's status.
type readerOp struct {
	country string // "" = sweep status
	sweep   int
}

func (r readerOp) path() string {
	if r.country != "" {
		return "/api/countries/" + r.country
	}
	return fmt.Sprintf("/api/sweeps/bench-%d", r.sweep)
}

// leaderboardOf decodes a sweep status document and re-encodes its
// leaderboard, the part that must match the reference.
func leaderboardOf(body []byte) (state string, board []byte, err error) {
	var st sweep.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return "", nil, err
	}
	board, err = json.Marshal(st.Leaderboard)
	return st.State, board, err
}

func runWhatif(ctx context.Context, b *bench) (*outcome, error) {
	o := newOutcome()
	e, err := newEnv(b, o, true)
	if err != nil {
		return nil, err
	}
	// Untimed prep: a store holding both campaigns, as a server that
	// warmed once leaves it. Every start gets a fresh copy.
	prep := b.path("prep-store")
	if err := populateStore(e, prep); err != nil {
		return nil, err
	}
	reqs := whatifRequests(b.cfg.seed)
	countries := e.w.VantageCountries()
	rng := rand.New(rand.NewSource(b.cfg.seed + 1))
	readerCountries := make([]string, 1<<16)
	for i := range readerCountries {
		readerCountries[i] = countries[rng.Intn(len(countries))]
	}
	ih := newInputsHasher("whatif", b.cfg.seed)
	for _, r := range reqs {
		raw, _ := json.Marshal(r)
		ih.add(raw)
	}
	for _, cc := range readerCountries {
		ih.add([]byte(cc))
	}
	o.inputsHash = ih.sum()

	ref, err := newSweepRef(b, e, prep)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	countryDocs := map[string][]byte{}
	for _, cc := range countries {
		code, body := ref.serve(http.MethodGet, "/api/countries/"+cc, nil, -1)
		if code != http.StatusOK {
			return nil, fmt.Errorf("reference /api/countries/%s: %d", cc, code)
		}
		countryDocs[cc] = body
	}

	serveStore := b.path("store")
	spec := serverSpec{bin: b.cfg.server, args: append([]string{"-store", serveStore}, whatifServerFlags...), logTo: b.path("vzserve.log")}
	s, err := launch(ctx, b, o, spec, func(int) error { return freshCopy(prep, serveStore) }, nil)
	if err != nil {
		return nil, err
	}
	// Untimed pass over the reader's mix; the writer's first sweep is
	// the timed phase's first operation.
	wc := keepAliveClient()
	for _, cc := range countries {
		if code, body, err := get(wc, s.base+"/api/countries/"+cc); err != nil || code != http.StatusOK || !bytes.Equal(body, countryDocs[cc]) {
			return nil, fmt.Errorf("warm-up /api/countries/%s: status %d, %v", cc, code, err)
		}
	}
	wc.CloseIdleConnections()

	p, err := beginPhase(s)
	if err != nil {
		return nil, err
	}
	var (
		current      atomic.Int64          // sweep the reader polls
		posted1      = make(chan struct{}) // closed once the first sweep exists, or the writer gave up
		writerOn     atomic.Bool
		posted       int
		boards       = make([][]byte, 0, whatifSweeps)
		totals       = make([]int64, 0, whatifSweeps)
		specs        int64
		specsOK      int64
		writerErr    error
		reader       loopStats
		readerOps    []readerOp
		countryReads int64 // country summaries compared with the reference
		wg           sync.WaitGroup
		deadline     = p.deadline(b.cfg.seconds)
	)
	writerOn.Store(true)
	wg.Add(2)
	go func() { // writer: one sweep at a time, each waited to completion
		defer wg.Done()
		defer writerOn.Store(false)
		var once sync.Once
		defer once.Do(func() { close(posted1) })
		c := keepAliveClient()
		defer c.CloseIdleConnections()
		for posted < len(reqs) && time.Now().Before(deadline) {
			raw, _ := json.Marshal(reqs[posted])
			resp, err := c.Post(s.base+"/api/sweeps", "application/json", bytes.NewReader(raw))
			if err != nil {
				writerErr = err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				writerErr = fmt.Errorf("POST sweep %s: %s", reqs[posted].ID, resp.Status)
				return
			}
			current.Store(int64(posted))
			once.Do(func() { close(posted1) })
			for {
				time.Sleep(whatifPoll)
				code, body, err := get(c, s.base+"/api/sweeps/"+reqs[posted].ID)
				if err != nil || code != http.StatusOK {
					writerErr = fmt.Errorf("poll sweep %s: status %d, %v", reqs[posted].ID, code, err)
					return
				}
				state, board, err := leaderboardOf(body)
				if err != nil {
					writerErr = err
					return
				}
				if state == sweep.StateDone {
					var st sweep.Status
					_ = json.Unmarshal(body, &st)
					specs += int64(st.Total)
					specsOK += int64(st.Total - st.Failed)
					boards = append(boards, board)
					totals = append(totals, int64(st.Total))
					break
				}
			}
			posted++
		}
	}()
	go func() { // reader: closed loop until the writer finishes
		defer wg.Done()
		c := keepAliveClient()
		defer c.CloseIdleConnections()
		reader.lat = make([]time.Duration, 0, 1<<16)
		<-posted1
		for i := 0; writerOn.Load(); i++ {
			// Three country summaries to one read of the sweep being
			// written. A summary costs the server several times what a
			// status read does, so the median falls inside the
			// summaries, whose time is mostly the server's work, and not
			// among the status reads, whose time is mostly waking an
			// idle core and moves with the host's load.
			op := readerOp{country: readerCountries[i%len(readerCountries)]}
			if i%4 == 3 {
				op = readerOp{sweep: int(current.Load())}
			}
			t0 := time.Now()
			code, body, err := get(c, s.base+op.path())
			lat := time.Since(t0)
			reader.lat = append(reader.lat, lat)
			reader.at = append(reader.at, t0.Add(lat).Sub(p.start))
			reader.attempted++
			readerOps = append(readerOps, op)
			switch {
			case err != nil || code != http.StatusOK:
				reader.failed++
				o.note("error: %s: status %d, %v", op.path(), code, err)
			case op.country == "":
			case !bytes.Equal(body, countryDocs[op.country]):
				countryReads++
				reader.failed++
				o.note("mismatch: %s differs from the in-process reference", op.path())
			default:
				countryReads++
			}
		}
	}()
	wg.Wait()
	before, after, err := p.end(o)
	if err != nil {
		return nil, err
	}
	b.procs.stop(s)
	if writerErr != nil {
		return nil, writerErr
	}
	// Operations are completed sweep specs; latency samples are the
	// reader's requests, which share the gate and the cores with them.
	o.latencies, o.at = reader.lat, reader.at
	// Each country's summary is a document, and so is the status read:
	// latency_p50_ms is the median of their medians (see outcome.p50).
	classOf := map[string]int{"": len(countries)}
	for i, cc := range countries {
		classOf[cc] = i
	}
	for _, op := range readerOps {
		o.classes = append(o.classes, classOf[op.country])
	}
	o.attempted = specs + reader.attempted
	o.failed = (specs - specsOK) + reader.failed
	o.ops = specsOK
	o.note("whatif: %d sweeps, %d specs, %d reader requests", posted, specs, reader.attempted)
	var statusLat, countryLat []time.Duration
	for i, op := range readerOps {
		if op.country == "" {
			statusLat = append(statusLat, reader.lat[i])
		} else {
			countryLat = append(countryLat, reader.lat[i])
		}
	}
	o.note("whatif: reader p50 status %.4f ms, country %.4f ms", ms(median(statusLat)), ms(median(countryLat)))

	// Reference: the same requests through an in-process handler over a
	// fresh copy of the same store.
	for i := 0; i < posted; i++ {
		want, err := ref.runSweep(reqs[i])
		if err != nil {
			return nil, err
		}
		o.checked++
		if !bytes.Equal(boards[i], want) {
			o.failed += totals[i]
			o.ops -= totals[i]
			o.note("mismatch: sweep %s leaderboard differs from the in-process run", reqs[i].ID)
		}
	}
	o.checked += countryReads

	if b.cfg.trace {
		serverLayers(o, before, after)
		microLayers(b, o, false)
		if err := whatifLayers(b, o, e, ref, prep, reqs[:posted], boards, readerOps); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// populateStore warms an in-process handler over a new store, which
// persists both campaigns the way a server's first warm-up does.
func populateStore(e *env, dir string) error {
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	h := httpapi.NewWithOptions(e.w, httpapi.Options{
		Store:         st,
		TraceCampaign: e.traceCampaign,
		ChaosCampaign: e.chaosCampaign,
	})
	h.Warm()
	h.Close()
	return nil
}

// sweepRef is the in-process reference: a handler with the server's
// admission settings over a fresh copy of the prepared store. It runs
// two specs at once, which changes no leaderboard, so that checking
// takes less time than the timed phase did.
type sweepRef struct {
	b *bench
	h *httpapi.Handler
}

func newSweepRef(b *bench, e *env, prep string) (*sweepRef, error) {
	dir := b.path("ref-store")
	if err := freshCopy(prep, dir); err != nil {
		return nil, err
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	h := httpapi.NewWithOptions(e.w, httpapi.Options{
		MaxInFlight:   64,
		QueueTimeout:  10 * time.Second,
		Store:         st,
		SweepWorkers:  2,
		TraceCampaign: e.traceCampaign,
		ChaosCampaign: e.chaosCampaign,
	})
	h.Warm()
	return &sweepRef{b: b, h: h}, nil
}

func (r *sweepRef) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.h.DrainSweeps(ctx)
	r.h.Close()
}

// serve runs one request through the handler; op >= 0 records it as an
// httpapi.serve span of the traced replay.
func (r *sweepRef) serve(method, path string, body []byte, op int) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if op >= 0 {
		r.b.spans.timed("httpapi.serve", 0, op, func() { r.h.ServeHTTP(rec, req) })
	} else {
		r.h.ServeHTTP(rec, req)
	}
	return rec.Code, rec.Body.Bytes()
}

// runSweep posts req and returns its final leaderboard.
func (r *sweepRef) runSweep(req sweep.Request) ([]byte, error) {
	raw, _ := json.Marshal(req)
	if code, body := r.serve(http.MethodPost, "/api/sweeps", raw, -1); code != http.StatusAccepted {
		return nil, fmt.Errorf("reference POST sweep %s: %d %s", req.ID, code, body)
	}
	for {
		time.Sleep(5 * time.Millisecond)
		code, body := r.serve(http.MethodGet, "/api/sweeps/"+req.ID, nil, -1)
		if code != http.StatusOK {
			return nil, fmt.Errorf("reference sweep %s: %d", req.ID, code)
		}
		state, board, err := leaderboardOf(body)
		if err != nil {
			return nil, err
		}
		if state == sweep.StateDone {
			return board, nil
		}
	}
}

// whatifLayers times the layers the sweep and its readers cross:
// request expansion, spec compilation, a few windowed spec runs, the
// store's reads, puts and fsynced journal appends, and the reader
// requests through the whole handler stack.
func whatifLayers(b *bench, o *outcome, e *env, ref *sweepRef, prep string, reqs []sweep.Request, boards [][]byte, readerOps []readerOp) error {
	var specs []*scenario.Spec
	for i := range reqs {
		var got []*scenario.Spec
		var err error
		b.spans.timed("sweep.expand", 0, i, func() { got, _, err = reqs[i].Expand(e.w) })
		if err != nil {
			return err
		}
		specs = append(specs, got...)
	}
	o.layers["sweep.expand_ms"] = ms(mean(b.spans.durations("sweep.expand")))
	for i, sp := range specs {
		var err error
		b.spans.timed("scenario.compile", 0, i, func() { _, err = sp.Compile(e.w) })
		if err != nil {
			return err
		}
	}
	o.layers["scenario.compile_ms"] = ms(mean(b.spans.durations("scenario.compile")))
	eng := scenario.NewEngine(scenario.Options{
		World:         e.w,
		BaselineTrace: func(context.Context) (*atlas.TraceCampaign, error) { return e.tc, nil },
		BaselineChaos: func(context.Context) (*atlas.ChaosCampaign, error) { return e.cc, nil },
	})
	for i := 0; i < min(whatifRunSpecs, len(specs)); i++ {
		var err error
		b.spans.timed("scenario.run", 0, i, func() {
			_, _, err = eng.RunWith(context.Background(), specs[i], scenario.RunConfig{SkipTables: true})
		})
		if err != nil {
			return err
		}
	}
	o.layers["scenario.run_s.p50"] = median(b.spans.durations("scenario.run")).Seconds()

	// Store: the campaign entries a restart reads (the key format is
	// httpapi's), then what a sweep writes.
	dir := b.path("trace-store")
	if err := freshCopy(prep, dir); err != nil {
		return err
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	scope := e.w.Config.Scope()
	for i, k := range []string{"campaign-trace-" + scope, "campaign-chaos-" + scope} {
		b.spans.timed("resultstore.get", 0, i, func() { _, err = st.Get(k) })
		if err != nil {
			return fmt.Errorf("get %s: %w", k, err)
		}
	}
	o.layers["resultstore.get_ms"] = ms(sum(b.spans.durations("resultstore.get")))
	j, _, _, err := resultstore.OpenJournal(filepath.Join(dir, "bench.vzj"))
	if err != nil {
		return err
	}
	for i, sp := range specs {
		rec, _ := json.Marshal(sweep.Result{Spec: sp.ID, Key: sp.Key(), Status: sweep.StatusOK})
		b.spans.timed("resultstore.journal_append", 0, i, func() { err = j.Append(rec) })
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	o.layers["resultstore.journal_append_ms"] = ms(mean(b.spans.durations("resultstore.journal_append")))
	for i, board := range boards {
		b.spans.timed("resultstore.put", 0, i, func() { err = st.Put("bench-"+reqs[i].ID, board) })
		if err != nil {
			return err
		}
	}
	o.layers["resultstore.put_ms"] = ms(mean(b.spans.durations("resultstore.put")))

	// The reader's requests, against the reference handler, which now
	// holds every sweep the loopback phase ran.
	for i, op := range readerOps[:min(len(readerOps), whatifServeOps)] {
		if code, _ := ref.serve(http.MethodGet, op.path(), nil, i); code != http.StatusOK {
			return fmt.Errorf("traced replay %s: %d", op.path(), code)
		}
	}
	serve := sortedCopy(b.spans.durations("httpapi.serve"))
	o.layers["httpapi.serve_ms.p50"] = ms(quantile(serve, 0.5))
	o.layers["httpapi.serve_ms.p99"] = ms(quantile(serve, 0.99))
	o.layers["httpapi.net_ms.p50"] = ms(quantile(sortedCopy(o.latencies), 0.5)) - ms(quantile(serve, 0.5))
	return nil
}
