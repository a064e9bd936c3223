package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running ssspd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	flags  []string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// daemonFlags are the only flags the harness sets: where to listen and
// which bundle directory to serve. Everything else is ssspd's default.
func daemonFlags(addr, bundleDir string) []string {
	return []string{"-addr", addr, "-graphs", bundleDir}
}

// startDaemon execs ssspd and waits until /healthz/ready answers 200.
// It returns the time from exec to ready.
func startDaemon(ctx context.Context, bin, bundleDir, logPath string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child keeps its own descriptor
	d := &daemon{base: "http://" + addr, flags: daemonFlags(addr, bundleDir), exited: make(chan struct{})}
	d.cmd = exec.Command(bin, d.flags...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ssspd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	c := newClient(d.base, 1)
	defer c.close()
	deadline := time.After(2 * time.Minute)
	for {
		if c.ready(ctx) {
			return d, time.Since(start), nil
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("ssspd exited before ready (%v); log in %s", d.err, logPath)
		case <-deadline:
			d.stop()
			return nil, 0, fmt.Errorf("ssspd not ready after 2m; log in %s", logPath)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// peakRSSMiB reads the process's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time. It returns once the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}
