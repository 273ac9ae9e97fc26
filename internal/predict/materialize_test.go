package predict

import (
	"runtime"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/progs"
	"gompax/internal/sched"
)

// recordSession runs an MTL program once under a seeded random
// scheduler and returns the compiled property, the initial state and
// the relevant messages in emission order.
func recordSession(tb testing.TB, src, formula string, seed int64) (*monitor.Program, logic.State, []event.Message, int) {
	tb.Helper()
	parsed, err := mtl.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	code, err := mtl.Compile(parsed)
	if err != nil {
		tb.Fatal(err)
	}
	f := logic.MustParseFormula(formula)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := instrument.Run(code, instrument.PolicyFor(f), sched.NewRandom(seed), 0)
	if err != nil {
		tb.Fatal(err)
	}
	threads := 0
	for _, m := range out.Messages {
		threads = max(threads, m.Event.Thread+1)
	}
	return monitor.MustCompile(f), initial, out.Messages, threads
}

// pulseAllRaised is the perfbench wide-lattice property: the four
// pulses never overlap.
const pulseAllRaised = `!(v0 = 1 /\ v1 = 1 /\ v2 = 1 /\ v3 = 1)`

// TestOnlineAllocsPerCut is the allocation ceiling of the online
// explorer on the wide-lattice workload, in the daemon's configuration
// (Lossy, Counterexamples): one materialization per new cut, not per
// edge, keeps it at or below 10 allocations per explored cut (it was
// 27 when every edge built its clock, state and path).
func TestOnlineAllocsPerCut(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement replays a 6,561-cut session")
	}
	prog, initial, msgs, threads := recordSession(t, progs.PulseViolating(4, 4, 1), pulseAllRaised, 4)
	var res Result
	run := func() {
		o, err := NewOnline(prog, initial, threads, Options{Lossy: true, Counterexamples: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if err := o.Feed(m); err != nil {
				t.Fatal(err)
			}
		}
		if res, err = o.Close(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, run)
	if res.Stats.Cuts != 6561 || !res.Violated() {
		t.Fatalf("unexpected session: %d cuts, %d violations", res.Stats.Cuts, len(res.Violations))
	}
	perCut := allocs / float64(res.Stats.Cuts)
	t.Logf("%.0f allocs per session, %.2f per cut (%d cuts, %d pairs)", allocs, perCut, res.Stats.Cuts, res.Stats.Pairs)
	if perCut > 10 {
		t.Fatalf("online explorer: %.2f allocs per cut, want <= 10", perCut)
	}
}

// hostileSession is a computation whose clocks claim two writes of
// one variable are concurrent, which Algorithm A never emits: thread 0
// writes x=1 and thread 1 writes x=2, both after thread 2's two writes
// of y. The two paths into the top cut therefore carry different
// states (x=2 arriving last, or x=1), so a state reused from whichever
// edge minted the cut would be wrong for the other edge.
func hostileSession() (logic.State, []event.Message) {
	w := func(thread int, v string, val int64, comps ...uint64) event.Message {
		return event.Message{
			Event: event.Event{Thread: thread, Kind: event.Write, Var: v, Value: val, Relevant: true},
			Clock: clock.Global().Intern(comps),
		}
	}
	initial := logic.StateFromMap(map[string]int64{"x": 0, "y": 0})
	return initial, []event.Message{
		w(2, "y", 1, 0, 0, 1),
		w(2, "y", 2, 0, 0, 2),
		w(0, "x", 1, 1, 0, 2),
		w(1, "x", 2, 0, 1, 2),
	}
}

// TestHostileClockParity: when two paths reach one cut with different
// states, every explorer must step each edge's monitor states on that
// edge's own state, as the offline sequential explorer (which builds a
// state per edge) does — violations, counterexamples and statistics
// identical across offline and online, sequential and workers.
func TestHostileClockParity(t *testing.T) {
	initial, msgs := hostileSession()
	for _, formula := range []string{
		`x != 2`,
		`x != 1`,
		`!(x = 1 /\ (.)(x = 2))`,
		`!(x = 2 /\ (.)(x = 1))`,
		`x + y != 4`,
	} {
		prog := monitor.MustCompile(logic.MustParseFormula(formula))
		comp, err := lattice.NewComputation(initial, 3, msgs)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := Analyze(prog, comp, Options{Counterexamples: true})
		if err != nil {
			t.Fatal(err)
		}
		want := renderResult(offline)
		if !offline.Violated() {
			t.Fatalf("%s: fixture predicts no violation", formula)
		}
		parallel, err := Analyze(prog, comp, Options{Counterexamples: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderResult(parallel); got != want {
			t.Errorf("%s: offline workers=4 differs:\n%s\nwant:\n%s", formula, got, want)
		}
		for _, workers := range []int{0, 4} {
			o, err := NewOnline(prog, initial, 3, Options{Counterexamples: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderResult(feedAll(t, o, msgs, 3)); got != want {
				t.Errorf("%s: online workers=%d differs:\n%s\nwant:\n%s", formula, workers, got, want)
			}
		}
	}
}

// TestWorkerAtomCacheParity exercises the worker path's per-cut atom
// cache, filled under the entry's mutex by whichever worker steps into
// the cut first: on a wide lattice where most cuts are reached by
// several workers at once, the result must match the sequential
// explorer's. Run it under -race.
func TestWorkerAtomCacheParity(t *testing.T) {
	prog, initial, msgs, threads := recordSession(t, progs.PulseViolating(4, 2, 1), `v0 + v1 + v2 + v3 <= 2`, 9)
	seq, err := NewOnline(prog, initial, threads, Options{Counterexamples: true})
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(feedAll(t, seq, msgs, threads))
	for _, workers := range []int{2, 4, 8} {
		o, err := NewOnline(prog, initial, threads, Options{Counterexamples: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderResult(feedAll(t, o, msgs, threads)); got != want {
			t.Fatalf("workers=%d differs from sequential:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// BenchmarkOnlineWideLattice measures the daemon's analysis path on
// the perfbench wide-lattice session: one Online per iteration
// (Lossy, Counterexamples) fed the whole session in emission order,
// reported per explored cut.
func BenchmarkOnlineWideLattice(b *testing.B) {
	prog, initial, msgs, threads := recordSession(b, progs.PulseViolating(4, 4, 1), pulseAllRaised, 4)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	cuts := 0
	for n := 0; n < b.N; n++ {
		o, err := NewOnline(prog, initial, threads, Options{Lossy: true, Counterexamples: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range msgs {
			if err := o.Feed(m); err != nil {
				b.Fatal(err)
			}
		}
		res, err := o.Close()
		if err != nil {
			b.Fatal(err)
		}
		cuts += res.Stats.Cuts
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cuts), "ns/cut")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(cuts), "allocs/cut")
}
