package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one reprod child process listening on loopback.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// stderr keeps the process's log for error reports.
	mu     sync.Mutex
	stderr bytes.Buffer
	logged chan struct{} // closed once stderr reaches EOF
}

// startReprod launches bin with args plus a loopback -addr on a free port
// and returns once the process has reported its listen address.
func startReprod(bin string, args []string) (*proc, error) {
	s := &proc{logged: make(chan struct{})}
	s.cmd = exec.Command(bin, append(append([]string{}, args...), "-addr", "127.0.0.1:0")...)
	// Should the benchmark itself be killed, take the server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logged)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "reprod listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			s.mu.Lock()
			s.stderr.WriteString(line + "\n")
			s.mu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.logged:
	case <-time.After(10 * time.Second):
	}
	s.stop()
	return nil, fmt.Errorf("reprod did not report a listen address: %s", s.log())
}

func (s *proc) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.stderr.String())
}

// stop shuts the process down gracefully (SIGTERM, then SIGKILL after
// ten seconds) and waits until it has exited and its log is drained.
func (s *proc) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-s.logged // Wait closes the pipe; drain it first
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		return <-done
	}
}

// waitReady polls /readyz until it answers 200.
func (s *proc) waitReady(c *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("reprod not ready after 10s (last error %v): %s", err, s.log())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getJSON decodes a GET response of the server into v.
func (s *proc) getJSON(c *http.Client, path string, v any) error {
	resp, err := c.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// health is the slice of /healthz the benchmark reads.
type health struct {
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
}

// dbStats is the slice of /v1/databases/{name}/stats the benchmark reads.
type dbStats struct {
	SnapshotGeneration uint64 `json:"snapshotGeneration"`
	Stats              struct {
		NumSequences int `json:"numSequences"`
	} `json:"stats"`
	Persistence *struct {
		CommitBatches int64 `json:"commitBatches"`
		CommitRecords int64 `json:"commitRecords"`
	} `json:"persistence"`
}

// procCPU reads the process's CPU time (utime+stime) from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// procHWM reads the process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostTicks reads the host's steal and total CPU ticks from /proc/stat.
// Steal is time the hypervisor ran someone else while the guest's
// CPUs wanted to run; a run with much of it was measured on a slowed
// host.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// selfCPU is the benchmark process's own CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
