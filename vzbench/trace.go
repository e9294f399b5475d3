package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/obs"
	"vzlens/internal/overload"
	"vzlens/internal/world"
)

// perLayerMetrics is the --trace 1 metric set. A workload reports 0
// for a layer that does no work on it (core on query and dns, facts
// off query, and so on): that zero is the prediction the workload
// pairs with the layer.
var perLayerMetrics = []struct{ name, unit string }{
	{"httpapi.serve_ms.p50", "ms"},
	{"httpapi.serve_ms.p99", "ms"},
	{"httpapi.net_ms.p50", "ms"},
	{"overload.acquire_ns", "ns"},
	{"overload.queue_wait_s", "s"},
	{"overload.sheds", "count"},
	{"overload.coalesced_ratio", "ratio"},
	{"core.run_ms.p50", "ms"},
	{"core.run_ms.p99", "ms"},
	{"core.run_ms.sum", "ms"},
	{"core.render_us.p50", "us"},
	{"core.alloc_kb_per_op", "KB"},
	{"world.build_s", "s"},
	{"world.trace_campaign_s", "s"},
	{"world.chaos_campaign_s", "s"},
	{"world.campaign_alloc_mb", "MB"},
	{"world.dns_answer_us", "us"},
	{"facts.open_ms", "ms"},
	{"facts.decode_ms.sum", "ms"},
	{"facts.reconstruct_ms", "ms"},
	{"facts.decodes", "count"},
	{"query.parse_us", "us"},
	{"query.run_ms.p50", "ms"},
	{"query.run_ms.p99", "ms"},
	{"query.run_allocs", "count"},
	{"query.partitions_per_plan", "count"},
	{"resultstore.get_ms", "ms"},
	{"resultstore.put_ms", "ms"},
	{"resultstore.journal_append_ms", "ms"},
	{"scenario.compile_ms", "ms"},
	{"scenario.run_s.p50", "s"},
	{"sweep.expand_ms", "ms"},
	{"sweep.recomputed_ratio", "ratio"},
	{"netsim.bfs", "count"},
	{"dnswire.parse_ns", "ns"},
	{"dnsplane.handle_ns.p50", "ns"},
	{"dnsplane.handle_ns.p99", "ns"},
	{"dnsplane.handle_allocs", "count"},
	{"dnsplane.cache_hit_ratio", "ratio"},
	{"dnsplane.swap_refill_ms", "ms"},
	{"dnsplane.net_us.p50", "us"},
	{"obs.span_ns", "ns"},
}

// span is one benchmark-side span around a call into a layer.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Op     int           `json:"op"`     // index into the generated inputs, -1 outside them
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder holds spans in memory until the run writes them out.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent, op int, fn func()) time.Duration {
	id := r.begin(name, parent, op)
	fn()
	return r.end(id)
}

// durations lists the closed spans named name, in start order.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env is the in-process side of a run: a world built with the same
// configuration as vzserve's defaults (-quick, seed 0) and, where the
// workload needs them, both baseline campaigns.
type env struct {
	w  *world.World
	tc *atlas.TraceCampaign
	cc *atlas.ChaosCampaign
}

// serverConfig mirrors vzserve's default world flags.
func serverConfig() world.Config { return world.Config{Step: 3} }

// newEnv builds the in-process world (span world.build) and, when
// campaigns is set, simulates both campaigns cold (spans
// world.trace_campaign and world.chaos_campaign).
func newEnv(b *bench, o *outcome, campaigns bool) (*env, error) {
	e := &env{}
	var err error
	b.spans.timed("world.build", 0, -1, func() { e.w, err = world.Build(serverConfig()) })
	if err != nil {
		return nil, err
	}
	o.layers["world.build_s"] = b.spans.durations("world.build")[0].Seconds()
	if !campaigns {
		return e, nil
	}
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	o.layers["world.trace_campaign_s"] = b.spans.timed("world.trace_campaign", 0, -1, func() { e.tc = e.w.TraceCampaignCtx(ctx) }).Seconds()
	o.layers["world.chaos_campaign_s"] = b.spans.timed("world.chaos_campaign", 0, -1, func() { e.cc = e.w.ChaosCampaignCtx(ctx) }).Seconds()
	runtime.ReadMemStats(&ms1)
	o.layers["world.campaign_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return e, nil
}

func (e *env) traceCampaign() (*atlas.TraceCampaign, error) { return e.tc, nil }
func (e *env) chaosCampaign() (*atlas.ChaosCampaign, error) { return e.cc, nil }

// microLayers measures the two per-call costs every request pays no
// matter the workload: admission (uncontended) and a span with no
// tracer attached. dns admits with TryAcquire, HTTP with Acquire.
func microLayers(b *bench, o *outcome, tryAcquire bool) {
	const n = 200000
	g := overload.NewGate(overload.GateOptions{MaxInFlight: 64})
	ctx := context.Background()
	id := b.spans.begin("overload.acquire", 0, -1)
	for i := 0; i < n; i++ {
		if tryAcquire {
			if g.TryAcquire(overload.PriorityHigh) {
				g.Release()
			}
			continue
		}
		if release, err := g.Acquire(ctx, overload.PriorityLow); err == nil {
			release()
		}
	}
	o.layers["overload.acquire_ns"] = float64(b.spans.end(id)) / n
	id = b.spans.begin("obs.span", 0, -1)
	for i := 0; i < n; i++ {
		_, sp := obs.StartSpan(ctx, "bench")
		sp.End()
	}
	o.layers["obs.span_ns"] = float64(b.spans.end(id)) / n
}

// allocsDuring reports the heap bytes and objects fn allocated.
func allocsDuring(fn func()) (bytes, objects uint64) {
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&z)
	return z.TotalAlloc - a.TotalAlloc, z.Mallocs - a.Mallocs
}
