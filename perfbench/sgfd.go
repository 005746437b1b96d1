package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildSgfd compiles cmd/sgfd from the tree under test into dir.
func buildSgfd(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "sgfd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sgfd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building sgfd: %w", err)
	}
	return bin, nil
}

// sgfd is one running sgfd process, started with default flags plus -addr
// and a fresh -store-dir.
type sgfd struct {
	cmd    *exec.Cmd
	url    string
	stderr *os.File
	exited chan struct{}
}

func startSgfd(client *http.Client, bin, runDir string) (*sgfd, error) {
	store := filepath.Join(runDir, "stores", "sgfd")
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	errf, err := os.Create(filepath.Join(runDir, "sgfd.stderr"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", store)
	cmd.Stdout, cmd.Stderr = errf, errf
	// Take sgfd down with the harness if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		errf.Close()
		return nil, fmt.Errorf("starting sgfd: %w", err)
	}
	s := &sgfd{cmd: cmd, url: "http://" + addr, stderr: errf, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("sgfd exited during start-up (see %s)", errf.Name())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("sgfd did not become healthy within 15s")
		}
	}
}

// stop sends SIGTERM, waits for a graceful exit, and kills sgfd if it has
// not ended within ten seconds. It returns once the process has ended.
func (s *sgfd) stop() {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.stderr.Close()
}

func (s *sgfd) pid() int { return s.cmd.Process.Pid }

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// promSample is the parsed subset of sgfd's /metrics the benchmark reads.
type promSample struct {
	synthSeconds float64 // sgfd_request_duration_seconds_sum{handler="synthesize"}
	synthCount   float64 // sgfd_request_duration_seconds_count{handler="synthesize"}
	ledgerSaves  float64 // sgfd_store_ledger_saves_total
}

func scrapeMetrics(client *http.Client, url string) (promSample, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return promSample{}, err
	}
	defer resp.Body.Close()
	var p promSample
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case `sgfd_request_duration_seconds_sum{handler="synthesize"}`:
			p.synthSeconds = v
		case `sgfd_request_duration_seconds_count{handler="synthesize"}`:
			p.synthCount = v
		case "sgfd_store_ledger_saves_total":
			p.ledgerSaves = v
		}
	}
	return p, sc.Err()
}
