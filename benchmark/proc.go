package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Process hygiene for spawned servers (the hypotheses/lib/harness.sh
// rules, in Go): every server binds 127.0.0.1:0 and its address is read
// from the "serving" log line; it runs under the run's deadline; it is
// sent SIGTERM and given time to drain, then killed, on every exit path;
// a server that exits before it is stopped fails the run; its log goes to
// the run's scratch directory and nowhere else.

const (
	startTimeout = 20 * time.Second
	drainTimeout = 10 * time.Second
)

type server struct {
	name   string
	cmd    *exec.Cmd
	url    string
	log    string
	exited chan struct{} // closed once the process has been waited for
}

// startServer launches bin with -addr 127.0.0.1:0 and waits for it to
// report its address and answer /healthz.
func startServer(ctx context.Context, dir, name, bin string, args ...string) (*server, error) {
	s := &server{name: name, log: filepath.Join(dir, name+".log"), exited: make(chan struct{})}
	logf, err := os.Create(s.log)
	if err != nil {
		return nil, err
	}
	s.cmd = exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0", "-v", "info"}, args...)...)
	s.cmd.Cancel = func() error { return s.cmd.Process.Signal(syscall.SIGTERM) }
	s.cmd.WaitDelay = drainTimeout
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	urls := make(chan string, 1) // the one address line; the reader never blocks on it
	go func() {
		defer close(s.exited)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !found && strings.Contains(line, "msg=serving") {
				if _, rest, ok := strings.Cut(line, " url="); ok {
					urls <- strings.Fields(rest)[0]
					found = true
				}
			}
		}
		s.cmd.Wait()
	}()
	select {
	case s.url = <-urls:
	case <-s.exited:
		return nil, fmt.Errorf("%s exited before serving:\n%s", name, tail(s.log))
	case <-time.After(startTimeout):
		s.stop()
		return nil, fmt.Errorf("%s did not report an address within %v:\n%s", name, startTimeout, tail(s.log))
	}
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("%s is not healthy: %w", name, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("%s /healthz answered %d", name, resp.StatusCode)
	}
	return s, nil
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func (s *server) peakRSSMB() float64 { return peakRSSMB(s.cmd.Process.Pid) }

// stop drains the server with SIGTERM and kills it if it does not exit
// in time. It returns once the process has ended. Safe to call twice.
func (s *server) stop() {
	if !s.alive() {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(drainTimeout):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB returns VmHWM of a process in MB, or 0 where /proc does not
// provide it.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// tail returns the last lines of a log file for an error message.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}
