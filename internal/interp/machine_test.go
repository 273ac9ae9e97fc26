package interp_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gompax/internal/event"
	"gompax/internal/interp"
	"gompax/internal/mtl"
)

// recorder captures hook callbacks as abstract events for assertions.
type recorder struct {
	events []string
}

func (r *recorder) Read(tid int, name string, val int64) {
	r.events = append(r.events, sprintf("r%d:%s=%d", tid, name, val))
}
func (r *recorder) Write(tid int, name string, val int64) {
	r.events = append(r.events, sprintf("w%d:%s=%d", tid, name, val))
}
func (r *recorder) Acquire(tid int, l string) { r.events = append(r.events, sprintf("a%d:%s", tid, l)) }
func (r *recorder) Release(tid int, l string) { r.events = append(r.events, sprintf("l%d:%s", tid, l)) }
func (r *recorder) Signal(tid int, c string)  { r.events = append(r.events, sprintf("s%d:%s", tid, c)) }
func (r *recorder) WaitResume(tid int, c string) {
	r.events = append(r.events, sprintf("u%d:%s", tid, c))
}
func (r *recorder) Internal(tid int) { r.events = append(r.events, sprintf("i%d", tid)) }
func (r *recorder) Spawn(p, c int)   { r.events = append(r.events, sprintf("f%d:%d", p, c)) }

func sprintf(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

// runAll steps threads round-robin until done, failing on error.
func runAll(t *testing.T, m *interp.Machine) {
	t.Helper()
	for guard := 0; !m.Done(); guard++ {
		if guard > 100000 {
			t.Fatalf("machine did not terminate")
		}
		// Runnable is a view that Step rewrites: copy it to step every
		// thread of this round.
		runnable := slices.Clone(m.Runnable())
		if len(runnable) == 0 {
			t.Fatalf("deadlock: %v", m.BlockedThreads())
		}
		for _, tid := range runnable {
			if _, err := m.Step(tid); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSequentialExecution(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0, y = 0;
thread t {
    var i = 0;
    while (i < 5) {
        x = x + i;
        i = i + 1;
    }
    y = x * 2;
}
`)
	rec := &recorder{}
	m := interp.NewMachine(code, rec)
	runAll(t, m)
	if v, _ := m.Shared("x"); v != 10 {
		t.Errorf("x = %d, want 10", v)
	}
	if v, _ := m.Shared("y"); v != 20 {
		t.Errorf("y = %d, want 20", v)
	}
	if m.Locals(0)["i"] != 5 {
		t.Errorf("local i = %d", m.Locals(0)["i"])
	}
	// 5 iterations × (read x, write x) + final read x + write y = 12 events.
	if len(rec.events) != 12 {
		t.Errorf("events = %d (%v), want 12", len(rec.events), rec.events)
	}
}

func TestArithmetic(t *testing.T) {
	code := mtl.MustCompile(`
shared a = 0, b = 0, c = 0, d = 0, e = 0, f = 0;
thread t {
    a = 7 + 3 * 2;
    b = (7 + 3) * 2;
    c = -7 / 2;
    d = 7 % 3;
    e = 5 - 2 - 1;
    f = 0 - 4;
}
`)
	m := interp.NewMachine(code, nil)
	runAll(t, m)
	want := map[string]int64{"a": 13, "b": 20, "c": -3, "d": 1, "e": 2, "f": -4}
	for k, v := range want {
		if got, _ := m.Shared(k); got != v {
			t.Errorf("%s = %d, want %d", k, got, v)
		}
	}
}

func TestBranching(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 3, out = 0;
thread t {
    if (x > 5) { out = 1; } else if (x > 2) { out = 2; } else { out = 3; }
}
`)
	m := interp.NewMachine(code, nil)
	runAll(t, m)
	if v, _ := m.Shared("out"); v != 2 {
		t.Errorf("out = %d, want 2", v)
	}
}

func TestShortCircuitSkipsReads(t *testing.T) {
	code := mtl.MustCompile(`
shared a = 0, b = 0, out = 0;
thread t { if (a == 1 && b == 1) { out = 1; } else { out = 2; } }
`)
	rec := &recorder{}
	m := interp.NewMachine(code, rec)
	runAll(t, m)
	for _, e := range rec.events {
		if strings.Contains(e, ":b=") {
			t.Errorf("b was read despite short circuit: %v", rec.events)
		}
	}
	if v, _ := m.Shared("out"); v != 2 {
		t.Errorf("out = %d, want 2", v)
	}
}

func TestDivisionByZeroError(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0, y = 0;
thread t { y = 1 / x; }
`)
	m := interp.NewMachine(code, nil)
	// First step reads x (event), second hits the division.
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	_, err := m.Step(0)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
	var rerr *interp.RuntimeError
	if !asRuntimeError(err, &rerr) || rerr.Thread != "t" {
		t.Fatalf("error lacks context: %#v", err)
	}
}

func asRuntimeError(err error, out **interp.RuntimeError) bool {
	re, ok := err.(*interp.RuntimeError)
	if ok {
		*out = re
	}
	return ok
}

func TestLockMutualExclusion(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
mutex m;
thread a { lock(m); x = x + 1; unlock(m); }
thread b { lock(m); x = x + 1; unlock(m); }
`)
	m := interp.NewMachine(code, nil)
	// Step a through its acquire.
	if k, err := m.Step(0); err != nil || k != interp.Progressed {
		t.Fatalf("a acquire: %v %v", k, err)
	}
	if m.LockHolder("m") != 0 {
		t.Fatalf("holder = %d", m.LockHolder("m"))
	}
	// b must block.
	if k, err := m.Step(1); err != nil || k != interp.Blocked {
		t.Fatalf("b should block: %v %v", k, err)
	}
	if m.Status(1) != interp.BlockedLock {
		t.Fatalf("b status = %v", m.Status(1))
	}
	if len(m.Runnable()) != 1 {
		t.Fatalf("runnable = %v", m.Runnable())
	}
	// Finish a's critical section; unlock wakes b.
	for i := 0; i < 3; i++ {
		if _, err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if m.Status(1) != interp.Runnable {
		t.Fatalf("b not woken: %v", m.Status(1))
	}
	runAll(t, m)
	if v, _ := m.Shared("x"); v != 2 {
		t.Errorf("x = %d, want 2", v)
	}
}

func TestRelockError(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
mutex m;
thread t { lock(m); lock(m); }
`)
	m := interp.NewMachine(code, nil)
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err == nil || !strings.Contains(err.Error(), "already held") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnlockNotHeldError(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
mutex m;
thread t { unlock(m); }
`)
	m := interp.NewMachine(code, nil)
	if _, err := m.Step(0); err == nil || !strings.Contains(err.Error(), "not held") {
		t.Fatalf("err = %v", err)
	}
}

func TestHaltHoldingLockError(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
mutex m;
thread t { lock(m); }
`)
	m := interp.NewMachine(code, nil)
	if _, err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(0); err == nil || !strings.Contains(err.Error(), "holding mutex") {
		t.Fatalf("err = %v", err)
	}
}

func TestWaitNotify(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
cond c;
thread waiter { wait(c); x = 1; }
thread notifier { skip; notify(c); }
`)
	rec := &recorder{}
	m := interp.NewMachine(code, rec)
	// Waiter parks.
	if k, _ := m.Step(0); k != interp.Blocked {
		t.Fatalf("waiter should park")
	}
	if m.Status(0) != interp.BlockedCond {
		t.Fatalf("status = %v", m.Status(0))
	}
	// Notifier runs: skip, then notify wakes the waiter.
	if _, err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if m.Status(0) != interp.Runnable {
		t.Fatalf("waiter not woken")
	}
	// Waiter resumes: WaitResume event then x=1.
	if k, _ := m.Step(0); k != interp.Progressed {
		t.Fatalf("waiter resume")
	}
	runAll(t, m)
	joined := strings.Join(rec.events, " ")
	if !strings.Contains(joined, "s1:c") || !strings.Contains(joined, "u0:c") {
		t.Fatalf("missing signal/waitresume events: %v", rec.events)
	}
	if v, _ := m.Shared("x"); v != 1 {
		t.Errorf("x = %d", v)
	}
}

func TestNotifyAll(t *testing.T) {
	// The two waiters write distinct variables: with a shared counter the
	// increments could legitimately race (both read 0 first), which is
	// the very class of behavior this system exists to analyze.
	code := mtl.MustCompile(`
shared a = 0, b = 0;
cond c;
thread w1 { wait(c); a = 1; }
thread w2 { wait(c); b = 1; }
thread n { notifyall(c); }
`)
	m := interp.NewMachine(code, nil)
	m.Step(0)
	m.Step(1)
	if _, err := m.Step(2); err != nil {
		t.Fatal(err)
	}
	if m.Status(0) != interp.Runnable || m.Status(1) != interp.Runnable {
		t.Fatalf("notifyall did not wake both")
	}
	runAll(t, m)
	if va, _ := m.Shared("a"); va != 1 {
		t.Errorf("a = %d", va)
	}
	if vb, _ := m.Shared("b"); vb != 1 {
		t.Errorf("b = %d", vb)
	}
}

func TestNotifyWakesOnlyOne(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
cond c;
thread w1 { wait(c); x = x + 1; }
thread w2 { wait(c); x = x + 1; }
thread n { notify(c); }
`)
	m := interp.NewMachine(code, nil)
	m.Step(0)
	m.Step(1)
	m.Step(2)
	woken := 0
	for tid := 0; tid < 2; tid++ {
		if m.Status(tid) == interp.Runnable {
			woken++
		}
	}
	if woken != 1 {
		t.Fatalf("notify woke %d threads, want 1", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
mutex a, b;
thread t1 { lock(a); skip; lock(b); unlock(b); unlock(a); }
thread t2 { lock(b); skip; lock(a); unlock(a); unlock(b); }
`)
	m := interp.NewMachine(code, nil)
	// t1: lock(a); t2: lock(b); t1: skip; t2: skip; both attempt second lock.
	m.Step(0)
	m.Step(1)
	m.Step(0)
	m.Step(1)
	if k, _ := m.Step(0); k != interp.Blocked {
		t.Fatalf("t1 should block on b")
	}
	if k, _ := m.Step(1); k != interp.Blocked {
		t.Fatalf("t2 should block on a")
	}
	if !m.Deadlocked() {
		t.Fatalf("deadlock not detected")
	}
	blocked := m.BlockedThreads()
	if len(blocked) != 2 {
		t.Fatalf("blocked = %v", blocked)
	}
}

func TestSnapshotRestore(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
mutex m;
thread a { lock(m); x = x + 1; unlock(m); }
thread b { lock(m); x = x + 10; unlock(m); }
`)
	m := interp.NewMachine(code, nil)
	snap := m.Snapshot()
	// Run to completion one way.
	runAll(t, m)
	if v, _ := m.Shared("x"); v != 11 {
		t.Fatalf("x = %d", v)
	}
	// Restore and run again: same result, fully replayable.
	m.Restore(snap)
	if v, _ := m.Shared("x"); v != 0 {
		t.Fatalf("restore failed: x = %d", v)
	}
	if m.Events() != 0 {
		t.Fatalf("restore did not reset events")
	}
	runAll(t, m)
	if v, _ := m.Shared("x"); v != 11 {
		t.Fatalf("second run x = %d", v)
	}
}

func TestStepNonRunnable(t *testing.T) {
	code := mtl.MustCompile(`shared x = 0; thread t { x = 1; }`)
	m := interp.NewMachine(code, nil)
	runAll(t, m)
	if _, err := m.Step(0); err == nil {
		t.Fatalf("stepping a done thread should error")
	}
	if _, err := m.Step(99); err == nil {
		t.Fatalf("stepping a bogus tid should error")
	}
}

func TestHooksSeeTheExactEventStream(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0, y = 0;
thread t { x = 5; y = x + 1; }
`)
	rec := &recorder{}
	m := interp.NewMachine(code, rec)
	runAll(t, m)
	want := []string{"w0:x=5", "r0:x=5", "w0:y=6"}
	if strings.Join(rec.events, " ") != strings.Join(want, " ") {
		t.Fatalf("events = %v, want %v", rec.events, want)
	}
}

// Keep the event kinds in sync with the paper's model: every hook has a
// corresponding event.Kind.
func TestEventKindsCovered(t *testing.T) {
	_ = []event.Kind{event.Read, event.Write, event.Acquire, event.Release,
		event.Signal, event.WaitResume, event.Internal}
}

// TestSilentLoopGuard: a loop whose condition and body touch no shared
// state never yields an event; the interpreter turns it into an error
// instead of hanging.
func TestSilentLoopGuard(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
thread t {
    var i = 0;
    while (i >= 0) { i = i + 1; }
    x = 1;
}
`)
	m := interp.NewMachine(code, nil)
	_, err := m.Step(0)
	if err == nil || !strings.Contains(err.Error(), "silent loop") {
		t.Fatalf("err = %v", err)
	}
}
