// Command vzbench is the repository's end-to-end benchmark. It starts
// the real vzserve binary over loopback, drives one seeded workload,
// checks every answer (DNS: a fixed seeded subset) against an
// in-process reference, and prints one JSON result line.
//
//	bash vzbench/run.sh --workload figures|query|dns|whatif --seed N --seconds S --trace 0|1
//
// run.sh builds vzserve and vzbench from the checkout, then execs
// vzbench, so no wrapper process sits between the caller and the
// servers vzbench starts. Each server is exec'd directly in its own
// process group with Pdeathsig SIGKILL, on free loopback ports, and is
// stopped with SIGTERM, a bounded wait, SIGKILL of the group, and a
// reap on every exit path.
//
// Workloads (closed loop, at most 2 client goroutines and 2 sockets):
//
//   - figures: vzserve defaults; 2 keep-alive clients GET the 22
//     experiment tables as JSON and CSV in seeded rounds that hold each
//     document once. Answers must equal Experiment.Run plus the encoder.
//   - query: vzserve -facts over a fresh copy of a lake the prep pass
//     committed; 2 clients GET seeded /api/query plans that do not
//     repeat. Answers must equal Engine.Run on the same lake.
//   - dns: vzserve -dns-addr; 1 UDP socket sends the seeded packet pool
//     while the control connection swaps a scenario in and out every
//     10000 queries. Replies to one pool packet in sixteen must equal
//     Resolver.Handle under the same scenario, message ID aside.
//   - whatif: vzserve -store -sweep-workers 1 -workers 1 over a fresh
//     copy of a store the prep pass warmed; one client runs seeded
//     root_each sweeps one after another, the other reads country
//     summaries and, one read in four, the running sweep's status until
//     the last sweep ends. Leaderboards must equal an in-process run of
//     the same requests.
//
// Each run starts its server five times from the same state and
// reports the median exec-to-ready time as setup_s; the last server
// runs an untimed pass over the op mix before the timed phase. With
// --trace 0 the result carries the end-to-end metrics (see
// outcome.endToEnd). With --trace 1 the same loopback run supplies the
// server's own counters and the client-observed latency, and a traced
// in-process replay of the same inputs through each layer's public
// functions supplies the per-layer metrics (perLayerMetrics); its spans
// are written to .bench_build/traces at exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// heapLimit bounds vzbench's heap while its collector is off during
// a timed phase.
const heapLimit = 1 << 30

func init() {
	debug.SetMemoryLimit(heapLimit)
	// Every vzserve is started from the main goroutine, and Pdeathsig
	// fires when the forking thread exits: pinning main to its thread
	// ties the children's lifetime to the process, not to whichever
	// runtime thread happened to fork them.
	runtime.LockOSThread()
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // vzserve binary
	work     string // scratch directory root inside the checkout
}

// workloads maps each workload name to the function that runs it: it
// returns the loopback phase's outcome and, in trace mode, the
// per-layer metrics.
var workloads = map[string]func(ctx context.Context, b *bench) (*outcome, error){
	"figures": runFigures,
	"query":   runQuery,
	"dns":     runDNS,
	"whatif":  runWhatif,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var cfg config
	traceFlag := 0
	flag.StringVar(&cfg.workload, "workload", "", "workload name: figures, query, dns, whatif")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = per-layer metrics from the traced run")
	flag.StringVar(&cfg.server, "server", "", "path to the vzserve binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for prepared state")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "vzbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.server == "" || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "vzbench: -server and a positive -seconds are required")
		return 2
	}

	b, err := newBench(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vzbench: %v\n", err)
		return 1
	}
	// A signal stops the servers and exits at once, from whatever
	// state the run is in; the result line is never printed.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		b.close()
		fmt.Fprintf(os.Stderr, "vzbench: %v: servers stopped, exiting\n", sig)
		os.Exit(3)
	}()
	out, err := run(context.Background(), b)
	b.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vzbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := b.writeSpans(); err != nil {
		fmt.Fprintf(os.Stderr, "vzbench: write spans: %v\n", err)
	}
	printReport(cfg, out)
	res := result{
		Correct:   out.failed == 0 && out.checked > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for _, m := range perLayerMetrics {
			v := out.layers[m.name]
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	} else {
		for name, m := range out.endToEnd() {
			res.Metrics[name] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vzbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printReport writes the human-readable lines that precede the result:
// sample counts, the inputs hash, and how much output was checked.
func printReport(cfg config, o *outcome) {
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("inputs_sha256=%s\n", o.inputsHash)
	fmt.Printf("samples=%d attempted=%d failed=%d checked=%d ops=%d elapsed_s=%.3f\n",
		len(o.latencies), o.attempted, o.failed, o.checked, o.ops, o.elapsed.Seconds())
	fmt.Printf("setup_runs_s=%v\n", fmtDurations(o.setups))
	lat := sortedCopy(o.latencies)
	fmt.Printf("latency_ms p10=%.4f p25=%.4f p40=%.4f p50=%.4f p60=%.4f p75=%.4f p90=%.4f p99=%.4f max=%.4f\n",
		ms(quantile(lat, 0.10)), ms(quantile(lat, 0.25)), ms(quantile(lat, 0.40)), ms(quantile(lat, 0.50)),
		ms(quantile(lat, 0.60)), ms(quantile(lat, 0.75)), ms(quantile(lat, 0.90)), ms(quantile(lat, 0.99)), ms(quantile(lat, 1)))
	if l, k := o.slicing(); k > 0 {
		fmt.Printf("slices=%d of %gs\n", k, l.Seconds())
		sl := o.slices(l, k)
		for _, q := range []float64{0.5, 0.99} {
			fmt.Printf("slice_latency_ms q%g=[", q)
			for _, s := range sl {
				fmt.Printf(" %.4f", ms(quantile(s, q)))
			}
			fmt.Println(" ]")
		}
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	if cfg.trace {
		names := make([]string, 0, len(o.layers))
		for k := range o.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("layer %s=%.6g\n", k, o.layers[k])
		}
	}
}

func fmtDurations(ds []time.Duration) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	return out
}

// bench holds one invocation's shared state: settings, the scratch
// directory, the live server processes, and the span recorder.
type bench struct {
	cfg   config
	dir   string // this run's private scratch directory
	procs *procSet
	spans *recorder
}

func newBench(cfg config) (*bench, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, fmt.Sprintf("%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	return &bench{cfg: cfg, dir: dir, procs: newProcSet(), spans: newRecorder()}, nil
}

// close stops every server still running and removes the scratch
// directory; it runs on every exit path, signals included.
func (b *bench) close() {
	b.procs.stopAll()
	_ = os.RemoveAll(b.dir)
}

func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// writeSpans writes the traced run's spans as JSON lines.
func (b *bench) writeSpans() error {
	if !b.cfg.trace {
		return nil
	}
	dir := filepath.Join(filepath.Dir(b.cfg.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return b.spans.writeFile(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", b.cfg.workload, b.cfg.seed)))
}
