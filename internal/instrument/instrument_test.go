package instrument_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/logic"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/observer"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/wire"
)

func TestPolicyFor(t *testing.T) {
	f := logic.MustParseFormula("(x > 0) -> [y = 0, y > z)")
	p := instrument.PolicyFor(f)
	for _, v := range []string{"x", "y", "z"} {
		if !p.Relevant(event.Event{Kind: event.Write, Var: v}) {
			t.Errorf("write of %s should be relevant", v)
		}
		if p.Relevant(event.Event{Kind: event.Read, Var: v}) {
			t.Errorf("read of %s should not be relevant", v)
		}
	}
	if p.Relevant(event.Event{Kind: event.Write, Var: "other"}) {
		t.Errorf("irrelevant variable marked relevant")
	}
}

func TestInitialState(t *testing.T) {
	prog := mtl.MustParse(progs.Crossing)
	f := logic.MustParseFormula(progs.CrossingProperty)
	s, err := instrument.InitialState(prog, f)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Lookup("x"); v != -1 {
		t.Errorf("x initial = %d", v)
	}
	if s.Len() != 3 {
		t.Errorf("state binds %d vars", s.Len())
	}
	// Variable not declared shared is an error.
	if _, err := instrument.InitialState(prog, logic.MustParseFormula("q = 1")); err == nil {
		t.Errorf("undeclared specification variable accepted")
	}
}

func TestRunCollectsMessages(t *testing.T) {
	code := mtl.MustCompile(progs.Crossing)
	f := logic.MustParseFormula(progs.CrossingProperty)
	out, err := instrument.Run(code, instrument.PolicyFor(f), sched.NewRandom(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Messages) != 4 {
		t.Fatalf("messages = %d, want 4 (x, z, y, x writes)", len(out.Messages))
	}
	// Per-thread clock components are the per-thread relevant indices.
	byThread := map[int][]uint64{}
	for _, m := range out.Messages {
		byThread[m.Event.Thread] = append(byThread[m.Event.Thread], m.Clock.Get(m.Event.Thread))
	}
	for th, idxs := range byThread {
		for i, idx := range idxs {
			if idx != uint64(i+1) {
				t.Fatalf("thread %d relevant indices %v", th, idxs)
			}
		}
	}
	if out.Final == nil {
		t.Fatalf("final state missing")
	}
}

func TestInstrumentorImplementsHooks(t *testing.T) {
	col := &mvc.Collector{}
	in := instrument.New(2, mvc.WritesOf("x"), col)
	in.Internal(0)
	in.Read(0, "x", 0)
	in.Write(0, "x", 1)
	in.Acquire(1, "m")
	in.Release(1, "m")
	in.Signal(0, "c")
	in.WaitResume(1, "c")
	if in.Tracker().Seq() != 7 {
		t.Fatalf("seq = %d", in.Tracker().Seq())
	}
	if len(col.Messages) != 1 || col.Messages[0].Event.Var != "x" {
		t.Fatalf("messages = %v", col.Messages)
	}
	// The write is the thread's first relevant event.
	if !clock.Equal(col.Messages[0].Clock, clock.Of(1)) {
		t.Fatalf("clock = %v", col.Messages[0].Clock)
	}
}

func TestRunStreamingSessionShape(t *testing.T) {
	code := mtl.MustCompile(progs.Landing)
	f := logic.MustParseFormula(progs.LandingProperty)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := instrument.RunStreaming(code, instrument.PolicyFor(f), initial, sched.NewRandom(1), 0, &buf); err != nil {
		t.Fatal(err)
	}
	s, err := observer.Drain(wire.NewReceiver(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if s.Hello.Threads != 2 {
		t.Fatalf("threads = %d", s.Hello.Threads)
	}
	if v, _ := s.Hello.Initial.Lookup("radio"); v != 1 {
		t.Fatalf("initial radio = %d", v)
	}
	for i, done := range s.Done {
		if !done {
			t.Fatalf("thread %d without completion notice", i)
		}
	}
}

// TestStreamingDeadlockedProgramStillCloses: a deadlocking execution
// still produces a complete, analyzable session.
func TestStreamingDeadlockedProgramStillCloses(t *testing.T) {
	code := mtl.MustCompile(progs.Philosophers)
	policy := mvc.WritesOf("meals")
	initial := logic.StateFromMap(map[string]int64{"meals": 0})
	// Round-robin quantum 1 forces the deadlock.
	var buf bytes.Buffer
	if err := instrument.RunStreaming(code, policy, initial, &sched.RoundRobin{Quantum: 1}, 0, &buf); err != nil {
		t.Fatal(err)
	}
	s, err := observer.Drain(wire.NewReceiver(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Messages) != 0 {
		t.Fatalf("deadlocked run should emit no meal writes, got %v", s.Messages)
	}
	for i, done := range s.Done {
		if !done {
			t.Fatalf("thread %d missing completion notice after deadlock", i)
		}
	}
}

func TestRunStreamingErrorPropagation(t *testing.T) {
	code := mtl.MustCompile(`shared x = 0; thread t { x = 1 / x; }`)
	policy := mvc.WritesOf("x")
	initial := logic.StateFromMap(map[string]int64{"x": 0})
	var buf bytes.Buffer
	err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(1), 0, &buf)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

// TestStreamingDeepFanInAllocs pins the client-side allocation cost of
// a 256-thread streaming session (the perfbench deep-fanin program):
// a scheduler step must not allocate in proportion to the thread
// count. Allocation counts are deterministic, so the ceiling is a hard
// bound; a per-step copy of the runnable set costs about 43k allocations
// here, and a 256-wide session promoted to the tree substrate about 7.6k.
func TestStreamingDeepFanInAllocs(t *testing.T) {
	const ceiling = 15000
	code := mtl.MustCompile(progs.DeepFanIn(256, 6))
	f := logic.MustParseFormula(`hub >= 0`)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	policy := instrument.PolicyFor(f)
	allocs := testing.AllocsPerRun(3, func() {
		if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(1), 0, io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunStreaming(DeepFanIn(256,6)): %.0f allocs/session", allocs)
	if allocs > ceiling {
		t.Fatalf("RunStreaming(DeepFanIn(256,6)) allocates %.0f times per session, ceiling %d", allocs, ceiling)
	}
}
