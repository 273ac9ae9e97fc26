package gompax

import (
	"fmt"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/mvc"
	"gompax/internal/progs"
)

// deepRounds is how many pulse+hub rounds each DeepFanIn worker runs in
// the recorded deep workloads: enough that the hub's access clock is
// fully accumulated and nearly every hub write is a wide fan-in join,
// small enough that recording 1024 interpreted threads stays cheap.
const deepRounds = 6

// deepClockScales are the thread counts the deep clock benchmarks and
// the tree-clock gate measure. They add 512 to the lab's
// progs.DeepScales so the flat/tree crossover that sets
// clock.DefaultAutoThreshold is bracketed by measured widths.
var deepClockScales = []int{64, 256, 512, 1024}

// deepWorkloads records the progs.DeepFanIn workload at every deep
// clock scale: the Join-dominated regime (wide fan-in joins over clocks with
// `threads` components) where the flat substrate's O(threads) per-op
// cost dominates and the tree substrate's O(subtree-changed) sharing
// pays off. The recorded policy is replaced with Everything: Algorithm
// A's step 1 only ticks V_i[i] at relevant events, so a property-
// derived policy would keep every clock's width at the two property
// variables' writers — with all events relevant, every thread ticks
// its own component and the hub joins genuinely span all `threads`
// components (the race detector's sync-only clocks behave this way in
// production, ticking at every sync event).
func deepWorkloads() ([]clockWorkload, error) {
	var out []clockWorkload
	for _, threads := range deepClockScales {
		w, err := recordWorkload(
			fmt.Sprintf("deep-fanin-%d", threads),
			progs.DeepFanIn(threads, deepRounds),
			progs.PulseOverlapProperty,
			int64(threads),
		)
		if err != nil {
			return nil, fmt.Errorf("deep-fanin-%d: %w", threads, err)
		}
		w.policy = mvc.Everything()
		out = append(out, w)
	}
	return out, nil
}

// trackOnly replays a recorded workload through Algorithm A on the
// given clock substrate and returns the emitted message count. It
// isolates the tracker phase — the layer the representation choice
// actually changes; wire framing and reconstruction are covered by
// BenchmarkPipelineClocks and are O(delta) regardless of substrate.
// countSink discards messages, so the measurement excludes the
// observer-side slice growth a Collector would add on top of the
// tracker's own work.
type countSink struct{ n int }

func (s *countSink) Emit(event.Message) { s.n++ }

func trackOnly(w clockWorkload, copts clock.Options) int {
	sink := &countSink{}
	tr := mvc.NewTrackerOpts(w.threads, w.policy, sink, copts)
	for _, op := range w.ops {
		tr.Process(event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value})
	}
	return sink.n
}

// substrateArms are the two explicit representations the deep
// benchmarks and the tree-clock gate compare.
var substrateArms = []struct {
	name string
	opts clock.Options
}{
	{"flat", clock.Options{Repr: clock.ReprFlat}},
	{"tree", clock.Options{Repr: clock.ReprTree}},
}

// BenchmarkDeepClocks measures Algorithm A tracking on both substrates
// across the deep fan-in scales. The headline number is B/op: the flat
// arm's per-event bytes grow linearly with the thread count (every
// wide join copies an O(threads)-chunk spine) while the tree arm's
// stay near-flat (joins share unchanged subtrees and copy only the
// changed path). The gate in treeclockgate_test.go turns that spread
// into a checked-in regression bound (BENCH_treeclock.json).
func BenchmarkDeepClocks(b *testing.B) {
	works, err := deepWorkloads()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range works {
		w := w
		wantMsgs := trackOnly(w, clock.Options{Repr: clock.ReprFlat})
		for _, arm := range substrateArms {
			arm := arm
			b.Run(w.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := trackOnly(w, arm.opts); got != wantMsgs {
						b.Fatalf("tracker emitted %d messages, want %d", got, wantMsgs)
					}
				}
			})
		}
	}
}

// TestDeepClockArmsAgree pins the benchmark arms to the same
// semantics: on every deep workload the flat- and tree-backed trackers
// emit the same messages with cross-substrate-Equal clocks, so the
// benchmark compares representations and never divergent work.
func TestDeepClockArmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("deep workload recording is not worth -short time")
	}
	works, err := deepWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range works {
		colF, colT := &mvc.Collector{}, &mvc.Collector{}
		trF := mvc.NewTrackerOpts(w.threads, w.policy, colF, clock.Options{Repr: clock.ReprFlat})
		trT := mvc.NewTrackerOpts(w.threads, w.policy, colT, clock.Options{Repr: clock.ReprTree})
		for _, op := range w.ops {
			e := event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value}
			trF.Process(e)
			trT.Process(e)
		}
		if len(colF.Messages) != len(colT.Messages) {
			t.Fatalf("%s: flat emitted %d messages, tree %d", w.name, len(colF.Messages), len(colT.Messages))
		}
		for k := range colF.Messages {
			fm, tm := colF.Messages[k], colT.Messages[k]
			if fm.Event != tm.Event {
				t.Fatalf("%s msg %d: events differ", w.name, k)
			}
			if !clock.Equal(fm.Clock, tm.Clock) || fm.Clock.Key() != tm.Clock.Key() {
				t.Fatalf("%s msg %d: clocks differ across substrates", w.name, k)
			}
		}
	}
}
