package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildBinaries compiles vzserve and vzbench into dir.
func buildBinaries(t *testing.T, dir string) (server, vzbench string) {
	t.Helper()
	server, vzbench = filepath.Join(dir, "vzserve"), filepath.Join(dir, "vzbench")
	for _, args := range [][]string{
		{"build", "-o", server, "vzlens/cmd/vzserve"},
		{"build", "-o", vzbench, "."},
	} {
		cmd := exec.Command("go", args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return server, vzbench
}

// watched is a vzserve process vzbench started, found through
// /proc by its executable path, with the ports from its command line.
type watched struct {
	pid   int
	ports []string // "tcp:port" and "udp:port"
}

// watcher polls /proc for processes running exe until stopped.
type watcher struct {
	exe  string
	mu   sync.Mutex
	seen map[int]watched
	stop chan struct{}
	done chan struct{}
}

func watch(exe string) *watcher {
	w := &watcher{exe: exe, seen: map[int]watched{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for {
			for _, p := range procsRunning(exe) {
				w.mu.Lock()
				w.seen[p.pid] = p
				w.mu.Unlock()
			}
			select {
			case <-w.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	return w
}

func (w *watcher) close() []watched {
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]watched, 0, len(w.seen))
	for _, p := range w.seen {
		out = append(out, p)
	}
	return out
}

func (w *watcher) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.seen)
}

// procsRunning lists live (not zombie) processes whose executable is
// exe.
func procsRunning(exe string) []watched {
	ents, _ := os.ReadDir("/proc")
	var out []watched
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if target, err := os.Readlink(fmt.Sprintf("/proc/%d/exe", pid)); err != nil || target != exe {
			continue
		}
		if zombie(pid) {
			continue
		}
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err != nil {
			continue
		}
		p := watched{pid: pid}
		args := strings.Split(string(raw), "\x00")
		for i := 0; i+1 < len(args); i++ {
			switch args[i] {
			case "-addr":
				p.ports = append(p.ports, "tcp:"+args[i+1][strings.LastIndexByte(args[i+1], ':')+1:])
			case "-dns-addr":
				p.ports = append(p.ports, "udp:"+args[i+1][strings.LastIndexByte(args[i+1], ':')+1:])
			}
		}
		out = append(out, p)
	}
	return out
}

// zombie reports whether pid has exited but not been reaped by its
// new parent yet; such a process runs nothing and holds no ports.
func zombie(pid int) bool {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	i := bytes.LastIndexByte(raw, ')')
	return i < 0 || i+2 >= len(raw) || raw[i+2] == 'Z' || raw[i+2] == 'X'
}

// assertGone fails unless, within limit, every watched process has
// ended and its ports can be bound again. A killed process's sockets
// close only once its last thread has exited, a little after the kill.
func assertGone(t *testing.T, exe string, seen []watched, limit time.Duration) {
	t.Helper()
	if len(seen) == 0 {
		t.Fatal("vzbench never started a server")
	}
	deadline := time.Now().Add(limit)
	for {
		running, taken := procsRunning(exe), takenPorts(seen)
		if len(running) == 0 && len(taken) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v after vzbench ended: vzserve still running %v, ports still taken %v", limit, running, taken)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// takenPorts lists the watched processes' ports that cannot be bound.
func takenPorts(seen []watched) []string {
	var taken []string
	for _, p := range seen {
		for _, port := range p.ports {
			network, num, _ := strings.Cut(port, ":")
			addr := "127.0.0.1:" + num
			if network == "tcp" {
				l, err := net.Listen("tcp", addr)
				if err != nil {
					taken = append(taken, port)
					continue
				}
				l.Close()
				continue
			}
			c, err := net.ListenPacket("udp", addr)
			if err != nil {
				taken = append(taken, port)
				continue
			}
			c.Close()
		}
	}
	return taken
}

// TestLifecycle runs vzbench on the dns workload three ways — to
// completion, stopped by SIGTERM mid-run, and SIGKILLed mid-run — and
// checks after each that no vzserve it started remains and that its
// ports are free.
func TestLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs vzserve")
	}
	dir := t.TempDir()
	server, vzbench := buildBinaries(t, dir)
	start := func(t *testing.T, seconds string) (*exec.Cmd, *bytes.Buffer, *watcher) {
		cmd := exec.Command(vzbench, "-server", server, "-work", filepath.Join(t.TempDir(), "work"),
			"--workload", "dns", "--seed", "1", "--seconds", seconds, "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		w := watch(server)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd, &out, w
	}
	// waitTimed returns once vzbench has started the server that runs
	// the timed phase (the last of its setupRuns starts) and has had time
	// to finish the warm-up pass.
	waitTimed := func(t *testing.T, w *watcher) {
		deadline := time.Now().Add(60 * time.Second)
		for w.count() < setupRuns {
			if time.Now().After(deadline) {
				t.Fatalf("%d servers started within 60s, want %d", w.count(), setupRuns)
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(2 * time.Second)
	}

	t.Run("normal exit", func(t *testing.T) {
		cmd, out, w := start(t, "1")
		if err := cmd.Wait(); err != nil {
			t.Fatalf("vzbench: %v\n%s", err, out)
		}
		assertGone(t, server, w.close(), time.Second)
		last := lastLine(out.String())
		if !strings.HasPrefix(last, `{"correct":true`) {
			t.Fatalf("last line is not a correct result: %q", last)
		}
	})

	t.Run("SIGTERM", func(t *testing.T) {
		cmd, out, w := start(t, "30")
		waitTimed(t, w)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		if err == nil {
			t.Fatalf("vzbench exited 0 after SIGTERM\n%s", out)
		}
		assertGone(t, server, w.close(), time.Second)
		if strings.Contains(out.String(), `"correct"`) {
			t.Fatalf("vzbench printed a result after SIGTERM\n%s", out)
		}
	})

	t.Run("SIGKILL", func(t *testing.T) {
		cmd, _, w := start(t, "30")
		waitTimed(t, w)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait()
		// Pdeathsig delivers SIGKILL to the server when vzbench dies.
		assertGone(t, server, w.close(), 5*time.Second)
	})
}

// TestRefusesWithoutProgram runs run.sh in a directory holding only
// BENCHMARK.json and the benchmark's own files: it must fail without
// printing a result.
func TestRefusesWithoutProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain")
	}
	dir := t.TempDir()
	if err := copyDir(".", filepath.Join(dir, "vzbench")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "vzbench/run.sh", "--workload", "dns", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatal("run.sh succeeded without the program's sources")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("run.sh printed a result: %s", stdout.String())
	}
}

func lastLine(s string) string {
	var last string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	return last
}
