package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a server gets to drain after SIGTERM before
// its process group is killed.
const stopGrace = 5 * time.Second

// server is one running vzserve process.
type server struct {
	cmd     *exec.Cmd
	pid     int
	base    string // "http://127.0.0.1:port"
	port    int
	dnsPort int // 0 unless the DNS plane is on
	log     *os.File
	done    chan struct{} // closed once the process is reaped
	err     error         // Wait's result, valid after done
}

// procSet owns every process the benchmark starts. Once stopAll has
// run, start refuses, so a signal that races a start cannot leave a
// process behind.
type procSet struct {
	mu     sync.Mutex
	live   map[*server]bool
	closed bool
}

func newProcSet() *procSet { return &procSet{live: map[*server]bool{}} }

// serverSpec says how to start one vzserve.
type serverSpec struct {
	bin   string
	args  []string // flags beyond -addr/-dns-addr/-drain
	dns   bool     // also start the DNS plane
	logTo string   // file for the server's stderr and stdout
}

// start execs vzserve directly, never through a shell or go run, in
// its own process group with Pdeathsig SIGKILL, on free loopback ports.
func (ps *procSet) start(spec serverSpec) (*server, error) {
	port, err := freeTCPPort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-drain", "2s"}
	s := &server{port: port, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	if spec.dns {
		if s.dnsPort, err = freeUDPPort(); err != nil {
			return nil, err
		}
		args = append(args, "-dns-addr", fmt.Sprintf("127.0.0.1:%d", s.dnsPort))
	}
	args = append(args, spec.args...)
	logf, err := os.OpenFile(spec.logTo, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.log = logf
	cmd := exec.Command(spec.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		logf.Close()
		return nil, errors.New("benchmark is shutting down")
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec %s: %w", spec.bin, err)
	}
	s.cmd, s.pid = cmd, cmd.Process.Pid
	ps.live[s] = true
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// stop sends SIGTERM to the server's process group, waits up to
// stopGrace, then SIGKILLs the group, and always waits until the
// process is reaped.
func (ps *procSet) stop(s *server) {
	_ = syscall.Kill(-s.pid, syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(stopGrace):
	}
	// The group may hold nothing but the reaped leader; ESRCH is fine.
	_ = syscall.Kill(-s.pid, syscall.SIGKILL)
	<-s.done
	s.log.Close()
	ps.mu.Lock()
	delete(ps.live, s)
	ps.mu.Unlock()
}

// stopAll stops every live server and refuses later starts.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	ps.closed = true
	live := make([]*server, 0, len(ps.live))
	for s := range ps.live {
		live = append(live, s)
	}
	ps.mu.Unlock()
	var wg sync.WaitGroup
	for _, s := range live {
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			ps.stop(s)
		}(s)
	}
	wg.Wait()
}

// exited reports whether the process has ended.
func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func freeTCPPort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func freeUDPPort() (int, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

// readiness is the part of /readyz the benchmark waits on.
type readiness struct {
	Campaigns map[string]bool `json:"campaigns"`
}

// waitReady polls until every campaign cache /readyz reports (trace,
// chaos, and facts where mounted) is warm and, when probe is set, the
// probe succeeds. The background warm-up has then finished, so it
// cannot overlap a timed phase.
func waitReady(ctx context.Context, s *server, probe func() bool, limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for {
		if s.exited() {
			return fmt.Errorf("vzserve exited before ready: %v (log %s)", s.err, s.log.Name())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("vzserve not ready after %v (log %s)", limit, s.log.Name())
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if ready(client, s) && (probe == nil || probe()) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func ready(client *http.Client, s *server) bool {
	resp, err := client.Get(s.base + "/readyz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var doc readiness
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&doc) != nil {
		return false
	}
	if !doc.Campaigns["trace"] || !doc.Campaigns["chaos"] {
		return false
	}
	if f, ok := doc.Campaigns["facts"]; ok && !f {
		return false
	}
	return true
}

// procStat is the server's CPU time and peak resident set.
type procStat struct {
	cpu    time.Duration // user + system
	hwmMiB float64       // VmHWM
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

func readProcStat(pid int) (procStat, error) {
	var st procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return st, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return st, fmt.Errorf("malformed /proc/%d/stat cpu fields", pid)
	}
	st.cpu = time.Duration(ut+stime) * time.Second / clockTicks
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return st, fmt.Errorf("malformed VmHWM %q", rest)
			}
			st.hwmMiB = kb / 1024
		}
	}
	return st, sc.Err()
}

// promSums scrapes /metrics. See parseProm.
func promSums(client *http.Client, s *server) (map[string]float64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

// parseProm reads Prometheus text: each family name maps to the sum of
// its samples over all label sets, and each labelled series also maps
// under its full name. Histograms appear under their _sum and _count
// series names.
func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			out[series] += v
			series = series[:i]
		}
		out[series] += v
	}
	return out
}

// counters is a before/after snapshot of the server's counters and
// /proc figures around a timed phase.
type counters struct {
	prom map[string]float64
	proc procStat
}

func snapshot(client *http.Client, s *server) (counters, error) {
	prom, err := promSums(client, s)
	if err != nil {
		return counters{}, err
	}
	st, err := readProcStat(s.pid)
	return counters{prom: prom, proc: st}, err
}

// delta is after minus before for one metric family.
func delta(before, after counters, names ...string) float64 {
	var d float64
	for _, n := range names {
		d += after.prom[n] - before.prom[n]
	}
	return d
}
