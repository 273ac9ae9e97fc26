package main

import (
	"bytes"
	"errors"
	"flag"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gompax/internal/instrument"
	"gompax/internal/logic"
	"gompax/internal/mtl"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/serve"
)

const crossingProp = "(x > 0) -> [y = 0, y > z)"

// TestDaemonLifecycle boots the daemon through main's run, checks the
// flag plumbing end to end (spec registry, addr file, store path), and
// drains it with a real SIGTERM.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	storePath := filepath.Join(dir, "results.jsonl")

	var out, errb bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-spec", "crossing=" + crossingProp,
			"-spec", "clean=x < 100",
			"-listen", "127.0.0.1:0",
			"-store", storePath,
			"-addr-file", addrFile,
			"-max-sessions", "2",
			"-log-level", "warn",
		}, &out, &errb, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never came up\nstdout: %s\nstderr: %s", out.String(), errb.String())
	}
	if addr == "" {
		t.Fatalf("no TCP address bound\nstderr: %s", errb.String())
	}

	// The addr file must hold the same bound address.
	fileAddr, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(fileAddr)); got != addr {
		t.Fatalf("addr file %q != bound address %q", got, addr)
	}

	// One real session against the registered spec.
	c, err := serve.DialSession("tcp", addr, "crossing")
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // abandon immediately; the daemon must still store a record

	// SIGTERM drains with exit 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != exitClean {
			t.Fatalf("daemon exit %d, want %d\nstderr: %s", code, exitClean, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never drained\nstdout: %s", out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing drain message:\n%s", out.String())
	}

	// The abandoned session left a durable record.
	s, err := serve.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("store has %d records, want 1", s.Len())
	}
}

func TestDaemonUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-listen", "127.0.0.1:0"}, &out, &errb, nil); code != exitError {
		t.Errorf("no specs: exit %d, want %d", code, exitError)
	}
	if !strings.Contains(errb.String(), "-spec") {
		t.Errorf("no specs stderr: %q", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-spec", "bad=((((", "-listen", "127.0.0.1:0"}, &out, &errb, nil); code != exitError {
		t.Errorf("bad formula: exit %d, want %d", code, exitError)
	}
	errb.Reset()
	if code := run([]string{"-spec", "nameonly", "-listen", "127.0.0.1:0"}, &out, &errb, nil); code != exitError {
		t.Errorf("malformed -spec: exit %d, want %d", code, exitError)
	}
	errb.Reset()
	if code := run([]string{"-spec", "a=x = 0", "-listen", "", "-unix", ""}, &out, &errb, nil); code != exitError {
		t.Errorf("no listeners: exit %d, want %d", code, exitError)
	}
	errb.Reset()
	if code := run([]string{"-spec", "a=x = 0", "-tenant", "acme=fast:1:1"}, &out, &errb, nil); code != exitError {
		t.Errorf("bad tenant rate: exit %d, want %d", code, exitError)
	}
	errb.Reset()
	if code := run([]string{"-spec", "a=x = 0", "-tenant", "acme=1:2"}, &out, &errb, nil); code != exitError {
		t.Errorf("malformed tenant quota: exit %d, want %d", code, exitError)
	}
	errb.Reset()
	if code := run([]string{"-verify-store"}, &out, &errb, nil); code != exitError {
		t.Errorf("verify-store without -store: exit %d, want %d", code, exitError)
	}
}

func TestTenantsFlagParsing(t *testing.T) {
	tf := tenantsFlag{}
	if err := tf.Set("acme=2.5:10:4"); err != nil {
		t.Fatal(err)
	}
	if l := tf["acme"]; l.Rate != 2.5 || l.Burst != 10 || l.Inflight != 4 {
		t.Fatalf("parsed limits = %+v", l)
	}
	// Empty parts mean unlimited for that dimension.
	if err := tf.Set("free=::"); err != nil {
		t.Fatal(err)
	}
	if l := tf["free"]; l.Rate != 0 || l.Burst != 0 || l.Inflight != 0 {
		t.Fatalf("unlimited limits = %+v", l)
	}
	if err := tf.Set("acme=1:1:1"); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
}

// TestVerifyStore exercises -verify-store against a real store: a
// clean one verifies with exit 0 and reports an orphan it recovered;
// a missing path fails.
func TestVerifyStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	s, err := serve.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := s.NextID()
	if err := s.Accepted(serve.AcceptedInfo{ID: id, Spec: "a", Start: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-verify-store", "-store", dir}, &out, &errb, nil); code != exitClean {
		t.Fatalf("verify-store exit %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "verified") || !strings.Contains(out.String(), "1 orphan(s) recovered") {
		t.Fatalf("verify-store output: %q", out.String())
	}
}

// TestGompaxdProcess is a helper, not a test: the signal test below
// re-executes this test binary with only it selected and gompaxd's
// arguments after "--", turning the child into a gompaxd process.
func TestGompaxdProcess(t *testing.T) {
	args := flag.Args()
	if len(args) == 0 {
		t.Skip("helper process for TestSIGTERMAfterFirstVerdict")
	}
	os.Exit(run(args, os.Stdout, os.Stderr, nil))
}

// TestSIGTERMAfterFirstVerdict runs gompaxd as a real child process
// and sends it SIGTERM the moment the first VERDICT arrives: the
// signal handler must already be installed, so the daemon drains,
// exits 0 and keeps the verdict in its store.
func TestSIGTERMAfterFirstVerdict(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	storePath := filepath.Join(dir, "store")
	cmd := exec.Command(os.Args[0], "-test.run=^TestGompaxdProcess$", "--",
		"-spec", "crossing="+progs.CrossingProperty,
		"-listen", "127.0.0.1:0",
		"-store", storePath,
		"-addr-file", addrFile,
		"-log-level", "warn")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-exited
		}
	}()

	var addr string
	for deadline := time.Now().Add(20 * time.Second); addr == ""; {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			addr = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	parsed, err := mtl.Parse(progs.Crossing)
	if err != nil {
		t.Fatal(err)
	}
	code, err := mtl.Compile(parsed)
	if err != nil {
		t.Fatal(err)
	}
	f := logic.MustParseFormula(progs.CrossingProperty)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := serve.Dial("tcp", addr, serve.SessionRequest{Spec: "crossing"})
	if err != nil {
		t.Fatal(err)
	}
	if err := instrument.RunStreaming(code, instrument.PolicyFor(f), initial, sched.NewRandom(3), 0, cl.Conn()); err != nil {
		t.Fatal(err)
	}
	if cw, ok := cl.Conn().(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	v, err := cl.Finish(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-exited:
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != exitClean {
			t.Fatalf("daemon exit %d (%v), want %d\n%s", code, cmd.ProcessState, exitClean, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never drained\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing drain message:\n%s", out.String())
	}
	s, err := serve.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, ok := s.Get(v.ID)
	if !ok {
		t.Fatalf("verdict %s missing from the store (%d records)", v.ID, s.Len())
	}
	if rec.Verdict != v.Verdict {
		t.Fatalf("stored verdict %q, client got %q", rec.Verdict, v.Verdict)
	}
}

// TestSIGTERMRightAfterListen sends SIGTERM the instant the session
// listener accepts a connection — before any session, and as early as
// a client can possibly reach the daemon. The handler is installed
// before the listener exists, so the daemon must still drain and exit 0.
func TestSIGTERMRightAfterListen(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "gompaxd.sock")
	cmd := exec.Command(os.Args[0], "-test.run=^TestGompaxdProcess$", "--",
		"-spec", "crossing="+progs.CrossingProperty,
		"-listen", "",
		"-unix", sock,
		"-log-level", "warn")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-exited
		}
	}()

	// Spin until the kernel accepts a connection on the socket: that
	// happens as soon as the daemon's listen call returns.
	for deadline := time.Now().Add(20 * time.Second); ; {
		if c, err := net.Dial("unix", sock); err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened\n%s", out.String())
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if code := cmd.ProcessState.ExitCode(); code != exitClean {
			t.Fatalf("daemon exit %d (%v), want %d\n%s", code, cmd.ProcessState, exitClean, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never drained\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing drain message:\n%s", out.String())
	}
}
