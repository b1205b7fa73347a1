package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running server process.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once cmd.Wait returns
}

// startServer starts a server process and waits for its first 200 from
// /readyz. It returns the process and the time from start to ready.
func startServer(bin string, args ...string) (*serverProc, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"serve"}, args...)...)
	cmd.Stderr = os.Stderr
	// The server dies with the load generator, however that exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br)
		cmd.Wait()
		close(p.done)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		p.stop()
		return nil, 0, fmt.Errorf("server did not report its address (%q): %v", line, err)
	}
	p.url = "http://" + addr
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := start.Add(150 * time.Second)
	for {
		resp, err := hc.Get(p.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("server exited before it was ready")
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("server not ready after %v", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited within 30 s. It reports whether the exit was clean.
func (p *serverProc) stop() bool {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return p.cmd.ProcessState.Success()
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return false
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
