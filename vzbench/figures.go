package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"vzlens/internal/core"
	"vzlens/internal/httpapi"
)

// figureOps is how many experiment requests the traced run replays in
// process; fig6 and fig12 dominate it at ~180 ms each.
const figureOps = 150

// figureDoc is one experiment URL and the bytes the server must answer.
type figureDoc struct {
	path string
	want []byte
	exp  core.Experiment
	csv  bool
}

// check compares one answer with the reference.
func (d figureDoc) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", d.path, status)
	}
	if !bytes.Equal(body, d.want) {
		return fmt.Errorf("%s: body differs from the in-process reference", d.path)
	}
	return nil
}

// tableDoc mirrors the JSON document /api/experiments/{id} serves.
type tableDoc struct {
	Caption string     `json:"caption"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
}

// renderTable encodes t the way the server does: indented JSON, or CSV.
func renderTable(t *core.Table, csv bool) []byte {
	if csv {
		return []byte(t.CSV())
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tableDoc{Caption: t.Caption, Header: t.Header, Rows: t.Rows})
	return buf.Bytes()
}

// runExperiment runs e over the in-process campaigns it declares.
func (e *env) runExperiment(x core.Experiment) *core.Table {
	switch x.Campaign {
	case "trace":
		return x.Run(e.w, e.tc, nil)
	case "chaos":
		return x.Run(e.w, nil, e.cc)
	}
	return x.Run(e.w, nil, nil)
}

// figureDocs renders the reference for all 22 experiments × {JSON, CSV}.
func figureDocs(e *env) []figureDoc {
	var docs []figureDoc
	for _, x := range core.Experiments() {
		t := e.runExperiment(x)
		for _, csv := range []bool{false, true} {
			path := "/api/experiments/" + x.ID
			if csv {
				path += ".csv"
			}
			docs = append(docs, figureDoc{path: path, want: renderTable(t, csv), exp: x, csv: csv})
		}
	}
	return docs
}

// figureInputs draws the request sequence: uniform over the documents,
// without replacement within each round of len(docs) requests. Every
// round holds fig6 and fig12 exactly twice each, so their share, which
// sets throughput, does not vary with the seed; only the order does.
func figureInputs(seed int64, n, docs int) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, n+docs)
	for len(seq) < n {
		seq = append(seq, rng.Perm(docs)...)
	}
	return seq[:n]
}

func runFigures(ctx context.Context, b *bench) (*outcome, error) {
	o := newOutcome()
	e, err := newEnv(b, o, true)
	if err != nil {
		return nil, err
	}
	docs := figureDocs(e)
	seq := figureInputs(b.cfg.seed, 1<<16, len(docs))
	ih := newInputsHasher("figures", b.cfg.seed)
	for _, i := range seq {
		ih.add([]byte(docs[i].path))
	}
	o.inputsHash = ih.sum()

	s, err := launch(ctx, b, o, serverSpec{bin: b.cfg.server, logTo: b.path("vzserve.log")}, nil, nil)
	if err != nil {
		return nil, err
	}
	check := func(c *http.Client, d figureDoc) (time.Duration, error) {
		t0 := time.Now()
		status, body, err := get(c, s.base+d.path)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		return lat, d.check(status, body)
	}
	// Untimed pass over the op mix: every document once.
	warm := keepAliveClient()
	for _, d := range docs {
		if _, err := check(warm, d); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	warm.CloseIdleConnections()

	p, err := beginPhase(s)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	st := closedLoop(p, clients, b.cfg.seconds, func(c *http.Client) (time.Duration, bool, int) {
		i := seq[int(next.Add(1)-1)%len(seq)]
		lat, err := check(c, docs[i])
		if err != nil {
			o.note("error: %v", err)
		}
		return lat, err == nil, i
	})
	before, after, err := p.end(o)
	if err != nil {
		return nil, err
	}
	st.fill(o)
	o.classes = st.class
	o.checked = st.attempted + int64(len(docs))
	b.procs.stop(s)

	if b.cfg.trace {
		serverLayers(o, before, after)
		microLayers(b, o, false)
		if err := figureLayers(b, o, e, docs, seq); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// figureLayers is the traced replay: the first figureOps requests
// through the whole handler stack into a recorder, then through
// Experiment.Run and the encoder alone.
func figureLayers(b *bench, o *outcome, e *env, docs []figureDoc, seq []int) error {
	h := httpapi.NewWithOptions(e.w, httpapi.Options{
		MaxInFlight:    64,
		QueueTimeout:   10 * time.Second,
		RequestTimeout: 5 * time.Minute,
		TraceCampaign:  e.traceCampaign,
		ChaosCampaign:  e.chaosCampaign,
	})
	defer h.Close()
	h.Warm()
	for op := 0; op < figureOps; op++ {
		d := docs[seq[op]]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, d.path, nil)
		b.spans.timed("httpapi.serve", 0, op, func() { h.ServeHTTP(rec, req) })
		if err := d.check(rec.Code, rec.Body.Bytes()); err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
	}
	var allocBytes uint64
	for op := 0; op < figureOps; op++ {
		d := docs[seq[op]]
		root := b.spans.begin("core.op", 0, op)
		var out []byte
		n, _ := allocsDuring(func() {
			var t *core.Table
			b.spans.timed("core.run", root, op, func() { t = e.runExperiment(d.exp) })
			b.spans.timed("core.render", root, op, func() { out = renderTable(t, d.csv) })
		})
		b.spans.end(root)
		allocBytes += n
		if !bytes.Equal(out, d.want) {
			return fmt.Errorf("traced replay: %s is not deterministic", d.path)
		}
	}
	serve := sortedCopy(b.spans.durations("httpapi.serve"))
	run := b.spans.durations("core.run")
	runSorted := sortedCopy(run)
	o.layers["httpapi.serve_ms.p50"] = ms(quantile(serve, 0.5))
	o.layers["httpapi.serve_ms.p99"] = ms(quantile(serve, 0.99))
	o.layers["httpapi.net_ms.p50"] = ms(quantile(sortedCopy(o.latencies), 0.5)) - ms(quantile(serve, 0.5))
	o.layers["core.run_ms.p50"] = ms(quantile(runSorted, 0.5))
	o.layers["core.run_ms.p99"] = ms(quantile(runSorted, 0.99))
	o.layers["core.run_ms.sum"] = ms(sum(run))
	o.layers["core.render_us.p50"] = us(median(b.spans.durations("core.render")))
	o.layers["core.alloc_kb_per_op"] = float64(allocBytes) / 1024 / figureOps
	return nil
}
