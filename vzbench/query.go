package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"vzlens/internal/facts"
	"vzlens/internal/httpapi"
	"vzlens/internal/months"
	"vzlens/internal/query"
)

// queryPool is how many distinct plans a run generates; clients walk
// the pool in order, so plans repeat only in runs longer than the pool.
const queryPool = 1 << 16

// queryWarmPlans is the size of the untimed pass, drawn from a
// separate stream so it cannot prime a memo with timed plans.
const queryWarmPlans = 256

// queryTraceOps caps the plans the traced run replays.
const queryTraceOps = 3000

// planGen draws /api/query plans: 4 metrics × their group-bys × 1–120
// month windows × percentiles, with optional country and letter
// filters. Plans come in rounds that hold every (metric, group-by,
// window-length quarter) shape once, in seeded order with seeded
// details, so the share of costly shapes does not vary with the seed.
type planGen struct {
	rng          *rand.Rand
	trace, chaos [2]months.Month // first and last partition month
	countries    []string
	round        []planShape
}

// planShape is the part of a plan that sets most of its cost.
type planShape struct {
	metric, groupBy string
	quarter         int // window length in (30q, 30q+30] months
}

func (g *planGen) next() string {
	if len(g.round) == 0 {
		for _, m := range []string{query.MetricMedianRTT, query.MetricHopCount, query.MetricReachability, query.MetricCatchmentShare} {
			groups := []string{query.GroupCountry, query.GroupASN, query.GroupNone}
			if m == query.MetricCatchmentShare {
				groups = append(groups, query.GroupLetter)
			}
			for _, gb := range groups {
				for q := 0; q < 4; q++ {
					g.round = append(g.round, planShape{m, gb, q})
				}
			}
		}
		g.rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
	}
	sh := g.round[0]
	g.round = g.round[1:]
	v := url.Values{}
	v.Set("metric", sh.metric)
	v.Set("group_by", sh.groupBy)
	span := g.trace
	if sh.metric == query.MetricCatchmentShare {
		span = g.chaos
	}
	width := span[1].Sub(span[0]) + 1
	n := min(30*sh.quarter+1+g.rng.Intn(30), width)
	from := span[0].Add(g.rng.Intn(width - n + 1))
	v.Set("from", from.String())
	v.Set("to", from.Add(n-1).String())
	if (sh.metric == query.MetricMedianRTT || sh.metric == query.MetricHopCount) && g.rng.Intn(2) == 0 {
		pcts := []string{"10", "25", "75", "90", "95", "99"}
		v.Set("percentile", pcts[g.rng.Intn(len(pcts))])
	}
	if g.rng.Intn(10) < 3 {
		v.Set("country", g.countries[g.rng.Intn(len(g.countries))])
	}
	if sh.metric == query.MetricCatchmentShare && g.rng.Intn(10) < 3 {
		v.Set("letter", string(rune('A'+g.rng.Intn(13))))
	}
	return "/api/query?" + v.Encode()
}

// renderQuery encodes a result the way the server does.
func renderQuery(res *query.Result) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
	return buf.Bytes()
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// planParams parses a generated plan path back into validated Params.
func planParams(path string) (query.Params, error) {
	u, err := url.Parse(path)
	if err != nil {
		return query.Params{}, err
	}
	return query.ParseParams(u.Query())
}

func runQuery(ctx context.Context, b *bench) (*outcome, error) {
	o := newOutcome()
	e, err := newEnv(b, o, true)
	if err != nil {
		return nil, err
	}
	// Untimed prep: commit one lake generation; every server start
	// and every in-process reader gets a fresh copy of it.
	prep := b.path("prep-lake")
	lake, err := facts.Open(prep, e.w.Config.Scope())
	if err != nil {
		return nil, err
	}
	if err := lake.Build(ctx, e.w); err != nil {
		return nil, fmt.Errorf("prep lake: %w", err)
	}
	tm, cm := lake.TraceMonths(), lake.ChaosMonths()
	gen := func(seed int64) *planGen {
		return &planGen{
			rng:       rand.New(rand.NewSource(seed)),
			trace:     [2]months.Month{tm[0], tm[len(tm)-1]},
			chaos:     [2]months.Month{cm[0], cm[len(cm)-1]},
			countries: e.w.VantageCountries(),
		}
	}
	g := gen(b.cfg.seed)
	plans := make([]string, queryPool)
	ih := newInputsHasher("query", b.cfg.seed)
	for i := range plans {
		plans[i] = g.next()
		ih.add([]byte(plans[i]))
	}
	o.inputsHash = ih.sum()

	serveLake := b.path("lake")
	spec := serverSpec{bin: b.cfg.server, args: []string{"-facts", serveLake}, logTo: b.path("vzserve.log")}
	s, err := launch(ctx, b, o, spec, func(int) error { return freshCopy(prep, serveLake) }, nil)
	if err != nil {
		return nil, err
	}
	// Untimed pass: every partition once through full-window plans,
	// then a sample of the mix.
	warm := []string{}
	for _, m := range []string{query.MetricMedianRTT, query.MetricCatchmentShare} {
		span := [2]months.Month{tm[0], tm[len(tm)-1]}
		if m == query.MetricCatchmentShare {
			span = [2]months.Month{cm[0], cm[len(cm)-1]}
		}
		warm = append(warm, fmt.Sprintf("/api/query?metric=%s&from=%s&to=%s", m, span[0], span[1]))
	}
	wg := gen(^b.cfg.seed)
	for i := 0; i < queryWarmPlans; i++ {
		warm = append(warm, wg.next())
	}
	wc := keepAliveClient()
	for _, path := range warm {
		if status, _, err := get(wc, s.base+path); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: status %d, %v", path, status, err)
		}
	}
	wc.CloseIdleConnections()

	p, err := beginPhase(s)
	if err != nil {
		return nil, err
	}
	// got[i] is the body hash the server answered for plan i; the
	// reference runs after the timed phase so it never loads the
	// measured cores.
	got := make([]uint64, queryPool)
	var next atomic.Int64
	st := closedLoop(p, clients, b.cfg.seconds, func(c *http.Client) (time.Duration, bool, int) {
		i := int(next.Add(1)-1) % queryPool
		t0 := time.Now()
		status, body, err := get(c, s.base+plans[i])
		lat := time.Since(t0)
		if err != nil || status != http.StatusOK {
			o.note("error: %s: status %d, %v", plans[i], status, err)
			return lat, false, i
		}
		got[i] = bodyHash(body)
		return lat, true, i
	})
	before, after, err := p.end(o)
	if err != nil {
		return nil, err
	}
	b.procs.stop(s)
	st.fill(o)

	issued := int(min(next.Load(), queryPool))
	refDir := b.path("ref-lake")
	if err := freshCopy(prep, refDir); err != nil {
		return nil, err
	}
	ref, err := facts.Open(refDir, e.w.Config.Scope())
	if err != nil {
		return nil, err
	}
	eng := query.New(ref)
	for _, path := range warm[:2] {
		if _, err := runPlan(eng, path); err != nil {
			return nil, err
		}
	}
	want := make([]uint64, issued)
	if b.cfg.trace {
		if err := queryLayers(b, o, eng, plans[:issued], want); err != nil {
			return nil, err
		}
	} else if err := referencePlans(eng, plans[:issued], want); err != nil {
		return nil, err
	}
	checked, bad := mismatches(got[:issued], want)
	o.checked += checked
	o.failed += int64(len(bad))
	o.ops -= int64(len(bad))
	for _, i := range bad {
		o.note("mismatch: %s differs from Engine.Run on the same lake", plans[i])
	}
	if b.cfg.trace {
		serverLayers(o, before, after)
		microLayers(b, o, false)
		if err := queryServeLayers(b, o, e, prep, plans[:min(issued, queryTraceOps)], want); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// mismatches compares the server's body hashes with the reference's.
// A zero in got marks a request that failed, and was counted, already.
func mismatches(got, want []uint64) (checked int64, bad []int) {
	for i := range got {
		if got[i] == 0 {
			continue
		}
		checked++
		if got[i] != want[i] {
			bad = append(bad, i)
		}
	}
	return checked, bad
}

func runPlan(eng *query.Engine, path string) ([]byte, error) {
	p, err := planParams(path)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return renderQuery(res), nil
}

// referencePlans fills want with the reference body hashes, on both
// cores: the server is stopped by now.
func referencePlans(eng *query.Engine, plans []string, want []uint64) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(plans); i += clients {
				body, err := runPlan(eng, plans[i])
				if err != nil {
					errs[c] = err
					return
				}
				want[i] = bodyHash(body)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// queryLayers is the reference pass run single-threaded under spans:
// ParseParams, Engine.Run (allocations counted), and the encoder, for
// every plan the loopback phase issued; then the fact lake's own costs
// on fresh copies of the prepared lake.
func queryLayers(b *bench, o *outcome, eng *query.Engine, plans []string, want []uint64) error {
	var allocs, partitions uint64
	for i, path := range plans {
		u, err := url.Parse(path)
		if err != nil {
			return err
		}
		var p query.Params
		b.spans.timed("query.parse", 0, i, func() { p, err = query.ParseParams(u.Query()) })
		if err != nil {
			return err
		}
		var res *query.Result
		_, n := allocsDuring(func() {
			b.spans.timed("query.run", 0, i, func() { res, err = eng.Run(p) })
		})
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		allocs += n
		partitions += uint64(res.Partitions)
		want[i] = bodyHash(renderQuery(res))
	}
	run := sortedCopy(b.spans.durations("query.run"))
	o.layers["query.parse_us"] = us(mean(b.spans.durations("query.parse")))
	o.layers["query.run_ms.p50"] = ms(quantile(run, 0.5))
	o.layers["query.run_ms.p99"] = ms(quantile(run, 0.99))
	o.layers["query.run_allocs"] = float64(allocs) / float64(max(len(plans), 1))
	o.layers["query.partitions_per_plan"] = float64(partitions) / float64(max(len(plans), 1))
	return nil
}

// queryServeLayers times the whole handler stack on a fresh copy of
// the lake (httpapi.serve), and the lake's open, per-partition decode,
// and campaign reconstruction on fresh copies (facts.*).
func queryServeLayers(b *bench, o *outcome, e *env, prep string, plans []string, want []uint64) error {
	scope := e.w.Config.Scope()
	dir := b.path("trace-lake")
	if err := freshCopy(prep, dir); err != nil {
		return err
	}
	var lake *facts.Lake
	var err error
	o.layers["facts.open_ms"] = ms(b.spans.timed("facts.open", 0, -1, func() { lake, err = facts.Open(dir, scope) }))
	if err != nil {
		return err
	}
	for _, m := range lake.TraceMonths() {
		b.spans.timed("facts.decode", 0, -1, func() { _, err = lake.TracePart(m) })
		if err != nil {
			return err
		}
	}
	for _, m := range lake.ChaosMonths() {
		b.spans.timed("facts.decode", 0, -1, func() { _, err = lake.ChaosPart(m) })
		if err != nil {
			return err
		}
	}
	o.layers["facts.decode_ms.sum"] = ms(sum(b.spans.durations("facts.decode")))
	if err := freshCopy(prep, dir); err != nil {
		return err
	}
	if lake, err = facts.Open(dir, scope); err != nil {
		return err
	}
	o.layers["facts.reconstruct_ms"] = ms(b.spans.timed("facts.reconstruct", 0, -1, func() {
		if _, err = lake.TraceCampaign(); err == nil {
			_, err = lake.ChaosCampaign()
		}
	}))
	if err != nil {
		return err
	}

	if err := freshCopy(prep, dir); err != nil {
		return err
	}
	h := httpapi.NewWithOptions(e.w, httpapi.Options{
		MaxInFlight:    64,
		QueueTimeout:   10 * time.Second,
		RequestTimeout: 5 * time.Minute,
		FactsDir:       dir,
		TraceCampaign:  e.traceCampaign,
		ChaosCampaign:  e.chaosCampaign,
	})
	defer h.Close()
	h.Warm()
	for i, path := range plans {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		b.spans.timed("httpapi.serve", 0, i, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK || bodyHash(rec.Body.Bytes()) != want[i] {
			return fmt.Errorf("traced replay: %s differs from the reference", path)
		}
	}
	serve := sortedCopy(b.spans.durations("httpapi.serve"))
	o.layers["httpapi.serve_ms.p50"] = ms(quantile(serve, 0.5))
	o.layers["httpapi.serve_ms.p99"] = ms(quantile(serve, 0.99))
	o.layers["httpapi.net_ms.p50"] = ms(quantile(sortedCopy(o.latencies), 0.5)) - ms(quantile(serve, 0.5))
	return nil
}
