package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// clients is the client goroutine count of the figures and query
// workloads.
const clients = 2

// setupRuns is how many times each workload starts its server; the
// reported setup_s is the median of these runs.
const setupRuns = 5

// readyLimit bounds one start-to-ready wait.
const readyLimit = 60 * time.Second

// outcome is one workload run: the loopback phase's end-to-end figures
// and, in trace mode, the per-layer metrics.
type outcome struct {
	latencies  []time.Duration // client-observed, one per latency sample
	at         []time.Duration // when each latency sample completed, from the start of the timed phase
	classes    []int           // the document each sample fetched, where the mix is a fixed set of documents
	opsAt      []time.Duration // when each successful operation completed, where operations are latency samples
	cpuAt      []time.Duration // server CPU at each whole second of the timed phase, from its start
	attempted  int64
	failed     int64
	checked    int64 // answers compared with the reference
	ops        int64 // successful operations
	elapsed    time.Duration
	setups     []time.Duration
	cpu        time.Duration // server user+system CPU in the timed phase
	rssMiB     float64
	inputsHash string
	layers     map[string]float64

	mu    sync.Mutex // guards notes, which client goroutines append to
	notes []string
}

// maxNotes caps the diagnostic lines a run prints.
const maxNotes = 20

func (o *outcome) note(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.notes) < maxNotes {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// endToEnd is the --trace 0 metric set. Where the timed phase cuts
// into slices (see slicing), throughput, latency and CPU per op are the
// median over its slices of each slice's figure, so a few seconds in
// which the host ran slow or another tenant took the cores move the
// run's figures less than a plain figure over the whole phase.
func (o *outcome) endToEnd() map[string]metric {
	lat := sortedCopy(o.latencies)
	p50, p99 := o.p50(lat), quantile(lat, 0.99)
	tput := float64(o.ops) / o.elapsed.Seconds()
	cpu := ms(o.cpu) / float64(max(o.ops, 1))
	if l, k := o.slicing(); k > 0 {
		sl := o.slices(l, k)
		if o.classes == nil {
			p50 = sliceMedian(sl, 0.5)
		}
		p99 = sliceMedian(sl, 0.99)
		if o.opsAt != nil {
			ops := make([]int, k)
			for _, t := range o.opsAt {
				if j := int(t / l); j < k {
					ops[j]++
				}
			}
			secs := int(l / time.Second)
			var tputs, cpus []float64
			for j, n := range ops {
				tputs = append(tputs, float64(n)/l.Seconds())
				if (j+1)*secs < len(o.cpuAt) {
					cpus = append(cpus, ms(o.cpuAt[(j+1)*secs]-o.cpuAt[j*secs])/float64(max(n, 1)))
				}
			}
			tput = medianFloat(tputs)
			if len(cpus) >= minSlices {
				cpu = medianFloat(cpus)
			}
		}
	}
	return map[string]metric{
		"setup_s":              {Value: median(o.setups).Seconds(), Unit: "s"},
		"throughput_ops_s":     {Value: tput, Unit: "ops/s"},
		"latency_p50_ms":       {Value: ms(p50), Unit: "ms"},
		"latency_p99_ms":       {Value: ms(p99), Unit: "ms"},
		"success_ratio":        {Value: float64(o.attempted-o.failed) / float64(max(o.attempted, 1)), Unit: "ratio"},
		"server_cpu_ms_per_op": {Value: cpu, Unit: "ms"},
		"peak_rss_mb":          {Value: o.rssMiB, Unit: "MB"},
	}
}

// sliceSamples is how many latency samples a slice of the timed phase
// holds on average at least, so that its p99 has ten samples beyond it.
const sliceSamples = 1000

// minSlices is the fewest slices worth a median; with fewer, the
// phase's figures are taken over the whole of it.
const minSlices = 3

// slicing cuts the timed phase into k slices of l, each the fewest
// whole seconds that hold sliceSamples latency samples on average; k is
// 0 when fewer than minSlices fit.
func (o *outcome) slicing() (l time.Duration, k int) {
	perSec := float64(len(o.latencies)) / o.elapsed.Seconds()
	if perSec <= 0 {
		return 0, 0
	}
	l = time.Duration(math.Ceil(sliceSamples/perSec)) * time.Second
	if k = int(o.elapsed / l); k < minSlices {
		return 0, 0
	}
	return l, k
}

// slices groups the latencies by the slice of length l their sample
// completed in, each group sorted; samples past k slices are left out.
func (o *outcome) slices(l time.Duration, k int) [][]time.Duration {
	out := make([][]time.Duration, k)
	for i, t := range o.at {
		if j := int(t / l); j < k {
			out[j] = append(out[j], o.latencies[i])
		}
	}
	for _, s := range out {
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	}
	return out
}

// sliceMedian is the median over slices of each slice's q-quantile.
func sliceMedian(sl [][]time.Duration, q float64) time.Duration {
	qs := make([]time.Duration, len(sl))
	for j, s := range sl {
		qs[j] = quantile(s, q)
	}
	return median(qs)
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(int(math.Ceil(0.5*float64(len(s))))-1, 0), len(s)-1)]
}

// p50 is the median latency. Where every sample is one of a fixed set
// of documents (classes), it is the median over documents of each
// document's median: the plain median of such a mix sits on whichever
// cost step divides the cheaper half of the requests from the rest,
// and moves with contention more than with any document's latency.
func (o *outcome) p50(sorted []time.Duration) time.Duration {
	if o.classes == nil {
		return quantile(sorted, 0.5)
	}
	byClass := map[int][]time.Duration{}
	for i, c := range o.classes {
		byClass[c] = append(byClass[c], o.latencies[i])
	}
	medians := make([]time.Duration, 0, len(byClass))
	for _, ls := range byClass {
		medians = append(medians, median(ls))
	}
	return median(medians)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(ds []time.Duration) time.Duration { return quantile(sortedCopy(ds), 0.5) }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}

// ratio is a/b, 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inputsHasher fingerprints a run's generated inputs, so two runs can
// prove they drove identical traffic.
type inputsHasher struct{ h hash.Hash }

func newInputsHasher(workload string, seed int64) *inputsHasher {
	ih := &inputsHasher{h: sha256.New()}
	fmt.Fprintf(ih.h, "%s\x00%d\x00", workload, seed)
	return ih
}

func (ih *inputsHasher) add(b []byte) {
	fmt.Fprintf(ih.h, "%d:", len(b))
	ih.h.Write(b)
}

func (ih *inputsHasher) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }

// launch starts a server setupRuns times (prepare, when set, resets
// its on-disk state before each start), records each exec-to-ready
// time, stops all but the last, and returns the last one running.
func launch(ctx context.Context, b *bench, o *outcome, spec serverSpec, prepare func(run int) error, probe func(*server) func() bool) (*server, error) {
	var s *server
	for run := 0; run < setupRuns; run++ {
		if s != nil {
			b.procs.stop(s)
		}
		if prepare != nil {
			if err := prepare(run); err != nil {
				return nil, err
			}
		}
		var err error
		t0 := time.Now()
		if s, err = b.procs.start(spec); err != nil {
			return nil, err
		}
		var p func() bool
		if probe != nil {
			p = probe(s)
		}
		if err := waitReady(ctx, s, p, readyLimit); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	return s, nil
}

// keepAliveClient is one client's HTTP connection: at most one
// keep-alive socket to the server.
func keepAliveClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// get fetches url and returns the status and body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// copyDir copies the regular files of a prepared directory tree, so
// every server start sees a fresh copy of the untimed prep pass.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// freshCopy replaces dst with a copy of src.
func freshCopy(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return copyDir(src, dst)
}

// phase brackets a timed phase with the server's counters.
type phase struct {
	client *http.Client
	s      *server
	before counters
	start  time.Time
	cpuAt  []time.Duration
	stop   chan struct{} // closed to stop the CPU sampler
	done   chan struct{} // closed once the sampler has stopped
}

// beginPhase snapshots the server's counters and starts the clock.
// vzbench's own garbage collector is off for the timed phase: the
// in-process reference keeps a large heap live, and collecting it would
// take CPU from the server at random moments. The memory limit still
// bounds the heap.
func beginPhase(s *server) (*phase, error) {
	p := &phase{client: &http.Client{Timeout: 10 * time.Second}, s: s}
	runtime.GC()
	debug.SetGCPercent(-1)
	var err error
	if p.before, err = snapshot(p.client, s); err != nil {
		return nil, fmt.Errorf("counters before timed phase: %w", err)
	}
	p.start = time.Now()
	p.cpuAt = []time.Duration{p.before.proc.cpu}
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go p.sampleCPU()
	return p, nil
}

// sampleCPU reads the server's CPU time at each whole second of the
// phase until stopped.
func (p *phase) sampleCPU() {
	defer close(p.done)
	for i := 1; ; i++ {
		t := time.NewTimer(time.Until(p.start.Add(time.Duration(i) * time.Second)))
		select {
		case <-p.stop:
			t.Stop()
			return
		case <-t.C:
		}
		st, err := readProcStat(p.s.pid)
		if err != nil {
			return
		}
		p.cpuAt = append(p.cpuAt, st.cpu)
	}
}

// deadline is when a phase of seconds ends.
func (p *phase) deadline(seconds float64) time.Time {
	return p.start.Add(time.Duration(seconds * float64(time.Second)))
}

// end closes the phase: elapsed time, CPU, peak RSS, and the counter
// snapshot taken after it.
func (p *phase) end(o *outcome) (before, after counters, err error) {
	o.elapsed = time.Since(p.start)
	close(p.stop)
	<-p.done
	o.cpuAt = p.cpuAt
	debug.SetGCPercent(100)
	after, err = snapshot(p.client, p.s)
	p.client.CloseIdleConnections()
	if err != nil {
		return before, after, fmt.Errorf("counters after timed phase: %w", err)
	}
	o.cpu = after.proc.cpu - p.before.proc.cpu
	o.rssMiB = after.proc.hwmMiB
	return p.before, after, nil
}

// serverLayers fills the per-layer metrics read from the server's own
// counters over the timed phase.
func serverLayers(o *outcome, before, after counters) {
	leaders := delta(before, after, "vz_flight_leaders_total")
	followers := delta(before, after, "vz_flight_followers_total")
	recomputed := delta(before, after, "vz_sweep_months_recomputed_total")
	reused := delta(before, after, "vz_sweep_months_reused_total")
	o.layers["overload.queue_wait_s"] = delta(before, after, "vz_gate_queue_wait_seconds_sum")
	o.layers["overload.sheds"] = delta(before, after, "vz_http_sheds_total", "vz_dns_shed_total")
	o.layers["overload.coalesced_ratio"] = ratio(followers, leaders+followers)
	o.layers["facts.decodes"] = delta(before, after, "vz_facts_decodes")
	o.layers["sweep.recomputed_ratio"] = ratio(recomputed, recomputed+reused)
	o.layers["netsim.bfs"] = delta(before, after, "vz_netsim_tree_bfs_total", "vz_netsim_path_bfs_total")
}

func newOutcome() *outcome { return &outcome{layers: map[string]float64{}} }

// loopStats is what a closed loop measured.
type loopStats struct {
	lat       []time.Duration
	at        []time.Duration // when each op completed, from the phase start
	okAt      []time.Duration // when each successful op completed
	class     []int           // the op's input class
	attempted int64
	failed    int64
}

func (st loopStats) fill(o *outcome) {
	o.latencies = append(o.latencies, st.lat...)
	o.at = append(o.at, st.at...)
	o.opsAt = append(o.opsAt, st.okAt...)
	o.attempted += st.attempted
	o.failed += st.failed
	o.ops += st.attempted - st.failed
}

// closedLoop runs the HTTP clients for seconds: each has its own
// keep-alive connection and sends its next request only after the
// previous reply. op performs one request and reports its latency,
// whether it succeeded (status, transport, and reference check), and
// the class of its input.
func closedLoop(p *phase, n int, seconds float64, op func(c *http.Client) (time.Duration, bool, int)) loopStats {
	deadline := p.deadline(seconds)
	per := make([]loopStats, n)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			c := keepAliveClient()
			defer c.CloseIdleConnections()
			*st = loopStats{lat: make([]time.Duration, 0, 1<<16), class: make([]int, 0, 1<<16)}
			for time.Now().Before(deadline) {
				lat, ok, class := op(c)
				at := time.Since(p.start)
				st.attempted++
				if ok {
					st.okAt = append(st.okAt, at)
				} else {
					st.failed++
				}
				st.lat = append(st.lat, lat)
				st.at = append(st.at, at)
				st.class = append(st.class, class)
			}
		}(&per[i])
	}
	wg.Wait()
	var all loopStats
	for _, st := range per {
		all.lat = append(all.lat, st.lat...)
		all.at = append(all.at, st.at...)
		all.okAt = append(all.okAt, st.okAt...)
		all.class = append(all.class, st.class...)
		all.attempted += st.attempted
		all.failed += st.failed
	}
	return all
}
