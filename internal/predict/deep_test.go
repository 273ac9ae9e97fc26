package predict

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/progs"
)

// deepFanInSession records one progs.DeepFanIn(threads, rounds)
// session under `hub < threads`, which the last worker's hub write
// violates: the monitor, the initial state and the relevant messages
// in emission order. Only hub writes are relevant, so the lattice is
// a chain of threads*rounds+1 cuts over threads-wide clocks.
func deepFanInSession(tb testing.TB, threads, rounds int, seed int64) (*monitor.Program, logic.State, []event.Message) {
	prog, initial, msgs, _ := recordSession(tb, progs.DeepFanIn(threads, rounds), fmt.Sprintf("hub < %d", threads), seed)
	return prog, initial, msgs
}

// TestOnlineDeepFanInParity: on deep, wide-clock sessions the online
// analyzer must match the offline explorer exactly — violations, cuts,
// pairs and level widths — for both explorer paths, in-order and
// shuffled delivery, and a lossy gap (against the offline analysis of
// the computation truncated at the gap).
func TestOnlineDeepFanInParity(t *testing.T) {
	t.Parallel()
	for _, threads := range []int{64, 256} {
		threads := threads
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			t.Parallel()
			prog, initial, msgs := deepFanInSession(t, threads, 2, int64(threads))
			offline := func(msgs []event.Message) string {
				comp, err := lattice.NewComputation(initial, threads, msgs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Analyze(prog, comp, Options{Counterexamples: true})
				if err != nil {
					t.Fatal(err)
				}
				return renderResult(res)
			}
			want := offline(msgs)
			if !strings.HasPrefix(want, "viol ") {
				t.Fatalf("session predicts no violation:\n%s", want)
			}

			rng := rand.New(rand.NewSource(int64(threads)))
			shuffled := append([]event.Message(nil), msgs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

			// The lossy session drops a mid-stream first write, leaving a
			// gap before its thread's second one; every later event of
			// that thread is then unreachable as well.
			lost := msgs[len(msgs)/2]
			for _, m := range msgs[len(msgs)/2:] {
				if m.Clock.Get(m.Event.Thread) == 1 {
					lost = m
					break
				}
			}
			var lossy, truncated []event.Message
			for _, m := range shuffled {
				if m.Event.Thread == lost.Event.Thread && m.Clock.Get(m.Event.Thread) >= lost.Clock.Get(lost.Event.Thread) {
					if m.Clock.Get(m.Event.Thread) > lost.Clock.Get(lost.Event.Thread) {
						lossy = append(lossy, m)
					}
					continue
				}
				lossy = append(lossy, m)
				truncated = append(truncated, m)
			}
			wantLossy := offline(truncated)

			for _, workers := range []int{0, 4} {
				for _, c := range []struct {
					name string
					msgs []event.Message
					opts Options
					want string
				}{
					{"in-order", msgs, Options{}, want},
					{"shuffled", shuffled, Options{}, want},
					{"lossy", lossy, Options{Lossy: true}, wantLossy},
				} {
					opts := c.opts
					opts.Workers, opts.Counterexamples = workers, true
					o, err := NewOnline(prog, initial, threads, opts)
					if err != nil {
						t.Fatal(err)
					}
					res := feedAll(t, o, c.msgs, threads)
					if got := renderResult(res); got != c.want {
						t.Fatalf("workers=%d %s:\n--- offline ---\n%s--- online ---\n%s", workers, c.name, c.want, got)
					}
					if lossyRun := c.opts.Lossy; lossyRun != (res.Degraded != nil) {
						t.Fatalf("workers=%d %s: degraded report %+v", workers, c.name, res.Degraded)
					}
				}
			}
		})
	}
}

// BenchmarkOnlineDeepFanIn measures the daemon's analysis path on
// deep, wide-clock sessions sized like the perfbench deep-fanin
// workload (6 rounds): one Online per iteration fed the whole session
// in emission order, reported per delivered message.
func BenchmarkOnlineDeepFanIn(b *testing.B) {
	for _, threads := range []int{64, 256} {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			prog, initial, msgs := deepFanInSession(b, threads, 6, 6)
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
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
				if _, err := o.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			per := float64(b.N * len(msgs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/msg")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/per, "allocs/msg")
		})
	}
}
