package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gompax/internal/serve"
)

// daemon is a gompaxd child process serving sessions on loopback.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	log     *os.File
	drained chan struct{} // closed once the child's stdout is drained
}

// daemonArgs is gompaxd's command line for a workload: default flags
// except an ephemeral loopback port, a fresh store directory and the
// workload's specs.
func daemonArgs(w workload, store string) []string {
	args := []string{"-listen", "127.0.0.1:0", "-store", store}
	for _, name := range w.specNames() {
		args = append(args, "-spec", name+"="+w.specs[name])
	}
	return args
}

// startDaemon execs gompaxd and returns once it reports its session
// address on stdout. Its log goes to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting gompaxd: %w", err)
	}
	d := &daemon{cmd: cmd, logPath: logPath, log: logf, drained: make(chan struct{})}
	// A daemon that never reports its address is killed, which ends
	// the read below with EOF.
	watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	br := bufio.NewReader(stdout)
	for d.addr == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			watchdog.Stop()
			cmd.Process.Kill()
			cmd.Wait()
			logf.Close()
			return nil, fmt.Errorf("gompaxd stopped before listening (log %s): %v", logPath, err)
		}
		if rest, ok := strings.CutPrefix(line, "gompaxd: sessions on tcp "); ok {
			d.addr = strings.Fields(rest)[0]
		}
	}
	watchdog.Stop()
	go func() {
		io.Copy(io.Discard, br)
		close(d.drained)
	}()
	return d, nil
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc status")
}

// stop sends SIGTERM and waits for the drained exit, killing the
// process if it has not exited after 30s. A non-zero exit is an error.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling gompaxd: %w", err)
	}
	killer := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	defer killer.Stop()
	<-d.drained
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("gompaxd exit (log %s): %w", d.logPath, err)
	}
	return nil
}

// kill stops the daemon at once, without a drain. Set-up launches are
// stopped this way: gompaxd installs its SIGTERM handler only after it
// starts serving, so a SIGTERM right after the first session can land
// before the handler and end the process without a drain.
func (d *daemon) kill() error {
	defer d.log.Close()
	if err := d.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("killing gompaxd: %w", err)
	}
	<-d.drained
	d.cmd.Wait() // the exit status is the kill
	return nil
}

// launch starts a daemon and times set-up: from exec until the first
// session is admitted (OK). It then completes that session so the
// daemon is idle, and checks its verdict.
func launch(bin string, args []string, logPath string, first *session) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, args, logPath)
	if err != nil {
		return nil, 0, err
	}
	cl, err := serve.Dial("tcp", d.addr, serve.SessionRequest{Spec: first.spec})
	setup := time.Since(t0)
	if err == nil {
		_, _, err = finishSession(cl, first)
	}
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("first session: %w", err)
	}
	return d, setup, nil
}

// cpuTimes is the host's aggregate CPU time from /proc/stat, in ticks.
type cpuTimes struct{ total, steal uint64 }

// hostSteal reads the host's CPU times; zero when unavailable.
func hostSteal() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// since is the share of CPU time stolen since t0.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}
