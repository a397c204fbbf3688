package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// serverProc is one hullserver process on loopback.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
}

// freePort asks the kernel for an unused loopback port. Another process
// may take it before hullserver binds it; startServer retries then.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with flags on a fresh loopback port and waits
// until /readyz answers 200. Its output goes to logPath. env adds to the
// inherited environment.
func startServer(bin string, flags []string, logPath string, env []string) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		p, err := launch(bin, flags, logPath, env)
		if err != nil {
			return nil, err
		}
		if err = p.waitReady(120 * time.Second); err == nil {
			return p, nil
		}
		p.kill()
		lastErr = err
	}
	return nil, lastErr
}

func launch(bin string, flags []string, logPath string, env []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), flags...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), env...)
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func (p *serverProc) base() string { return "http://" + p.addr }

// waitReady polls /readyz until it answers 200. hullserver recovers its
// streams before it listens, so connection refusals are expected first.
func (p *serverProc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: 5 * time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return errors.New("hullserver exited before it was ready (see its log)")
		default:
		}
		resp, err := hc.Get(p.base() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("hullserver not ready after %v", timeout)
}

// kill ends the process with SIGKILL — a crash: no shutdown checkpoint,
// no WAL close — and waits until it is reaped.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}
