package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"gompax/internal/event"
	"gompax/internal/interp"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/mvc"
	"gompax/internal/predict"
	"gompax/internal/sched"
	"gompax/internal/serve"
	"gompax/internal/telemetry/tracing"
	"gompax/internal/wire"
)

// The traced pass times calls into each layer's public functions from
// outside, on the same seeded sessions the load runs. Each session of
// a replay is one trace: a "session" root span with one child per
// timed call. Children whose role is "pipeline" are the steps a
// session takes through client and daemon; "baseline" children re-run
// a layer in isolation (no hooks, offline explorer, monitor alone) to
// give it a per-unit cost.

// replayCost is one replay pass over the pool.
type replayCost struct {
	sessions int
	elapsed  time.Duration

	events, rawEvents, msgs, states, records int
	cuts, pairs, maxWidth, interned          int
	wireBytes, storeBytes                    int64

	plain, instr, track, encode, decode, reconstruct time.Duration
	feed, close, explore, step, accepted, appendT    time.Duration

	mismatches []error
}

// replayer runs replay passes, recording spans when it has a tracer.
type replayer struct {
	tr       *tracing.Tracer
	storeDir string
	pass     int
}

// timed runs fn under a child span of parent (a no-op without a
// tracer) and returns its wall time.
func (r *replayer) timed(parent *tracing.Span, name, role string, fn func() error) (time.Duration, error) {
	sp := parent.Child(name)
	sp.SetAttr("role", role)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.End()
	return d, err
}

// replayPass replays every session of the pool once, layer by layer.
func (r *replayer) replayPass(pool []*session) (replayCost, error) {
	r.pass++
	dir := filepath.Join(r.storeDir, "pass-"+strconv.Itoa(r.pass))
	store, err := serve.OpenStoreOptions(serve.StoreOptions{Dir: dir})
	if err != nil {
		return replayCost{}, err
	}
	var c replayCost
	t0 := time.Now()
	for _, s := range pool {
		if err := r.replaySession(s, store, &c); err != nil {
			store.Close()
			return c, fmt.Errorf("session %d (%s/%s seed %d): %w", s.id, s.prog, s.spec, s.seed, err)
		}
	}
	c.elapsed = time.Since(t0)
	c.storeBytes = store.Bytes()
	if err := store.Close(); err != nil {
		return c, err
	}
	return c, os.RemoveAll(dir)
}

// replayBase is the fixed timestamp replayed store records carry, so
// the journal's bytes repeat exactly.
var replayBase = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func (r *replayer) replaySession(s *session, store *serve.Store, c *replayCost) error {
	root := r.tr.StartTrace("session")
	root.SetAttr("session", strconv.Itoa(s.id))
	root.SetAttr("program", s.prog)
	root.SetAttr("spec", s.spec)
	defer root.End()
	c.sessions++

	d, err := r.timed(root, "interp.run", "baseline", func() error {
		m := interp.NewMachine(s.code, nil)
		_, err := sched.Run(m, sched.NewRandom(s.seed), 0)
		c.events += int(m.Events())
		var dl *sched.DeadlockError
		if errors.As(err, &dl) {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	c.plain += d

	d, err = r.timed(root, "instrument.run", "pipeline", func() error {
		_, err := s.run()
		return err
	})
	if err != nil {
		return err
	}
	c.instr += d

	d, err = r.timed(root, "mvc.track", "baseline", func() error {
		s.track()
		return nil
	})
	if err != nil {
		return err
	}
	c.track += d
	c.rawEvents += len(s.raw)

	var wbuf bytes.Buffer
	snd := wire.NewSender(&wbuf)
	if err := snd.SendHello(wire.Hello{Threads: s.threads, Initial: s.initial}); err != nil {
		return err
	}
	if err := snd.Flush(); err != nil {
		return err
	}
	helloBytes := wbuf.Len()
	d, err = r.timed(root, "wire.encode", "pipeline", func() error {
		for _, m := range s.msgs {
			if err := snd.SendMessage(m); err != nil {
				return err
			}
		}
		return snd.Flush()
	})
	if err != nil {
		return err
	}
	c.encode += d
	c.wireBytes += int64(wbuf.Len() - helloBytes)
	c.msgs += len(s.msgs)

	var wstats wire.SessionStats
	d, err = r.timed(root, "wire.decode", "pipeline", func() error {
		wstats, err = s.decode()
		return err
	})
	if err != nil {
		return err
	}
	c.decode += d

	var comp *lattice.Computation
	d, err = r.timed(root, "lattice.reconstruct", "baseline", func() error {
		comp, err = lattice.NewComputation(s.initial, s.threads, s.msgs)
		return err
	})
	if err != nil {
		return err
	}
	c.reconstruct += d

	var on *predict.Online
	d, err = r.timed(root, "predict.feed", "pipeline", func() error {
		on, err = predict.NewOnline(s.mon, s.initial, s.threads, predict.Options{Lossy: true, Counterexamples: true})
		if err != nil {
			return err
		}
		for _, m := range s.msgs {
			if err := on.Feed(m); err != nil {
				return err
			}
		}
		for i := 0; i < s.threads; i++ {
			if err := on.FinishThread(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.feed += d

	var online predict.Result
	d, err = r.timed(root, "predict.close", "pipeline", func() error {
		online, err = on.Close()
		return err
	})
	if err != nil {
		return err
	}
	c.close += d
	if len(online.Violations) != s.ref.Violations || online.Stats.Cuts != s.ref.Cuts {
		c.mismatches = append(c.mismatches, fmt.Errorf("session %d: online analysis found %d violations over %d cuts, reference %d over %d",
			s.id, len(online.Violations), online.Stats.Cuts, s.ref.Violations, s.ref.Cuts))
	}

	var offline predict.Result
	d, err = r.timed(root, "predict.explore", "baseline", func() error {
		offline, err = predict.Analyze(s.mon, comp, predict.Options{Counterexamples: true})
		return err
	})
	if err != nil {
		return err
	}
	c.explore += d
	c.cuts += offline.Stats.Cuts
	c.pairs += offline.Stats.Pairs
	if offline.Stats.MaxWidth > c.maxWidth {
		c.maxWidth = offline.Stats.MaxWidth
	}
	c.interned += comp.Table().Size()

	states := observedStates(s.initial, s.msgs)
	d, err = r.timed(root, "monitor.step", "baseline", func() error {
		m := s.mon.NewMonitor()
		for _, st := range states {
			if _, err := m.Step(st); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.step += d
	c.states += len(states)

	id := store.NextID()
	start := replayBase.Add(time.Duration(s.id) * time.Second)
	d, err = r.timed(root, "serve.store_accepted", "pipeline", func() error {
		return store.Accepted(serve.AcceptedInfo{ID: id, Spec: s.spec, Formula: s.formula.String(), Tenant: "default", Start: start})
	})
	if err != nil {
		return err
	}
	c.accepted += d
	rec := serve.Record{
		ID: id, Spec: s.spec, Formula: s.formula.String(), Tenant: "default",
		Start: start, End: start.Add(time.Millisecond),
		Verdict: s.ref.Verdict, Violations: len(online.Violations),
		Stats: online.Stats, Wire: wstats,
	}
	if len(online.Violations) > 0 && online.Violations[0].Run != nil {
		for _, st := range online.Violations[0].Run.States {
			rec.Counterexample = append(rec.Counterexample, st.String())
		}
	}
	d, err = r.timed(root, "serve.store_append", "pipeline", func() error {
		return store.Append(rec)
	})
	if err != nil {
		return err
	}
	c.appendT += d
	c.records += 2
	return nil
}

// track replays the run's events through Algorithm A.
func (s *session) track() {
	t := mvc.NewTracker(s.threads, s.policy, &mvc.Collector{})
	for _, e := range s.raw {
		t.Process(e)
	}
}

// decode reads the session capture as the daemon does, with a resync
// receiver, and checks it carries every message of the run.
func (s *session) decode() (wire.SessionStats, error) {
	rcv := wire.NewResyncReceiver(bytes.NewReader(s.capture))
	n := 0
	for {
		f, err := rcv.Next()
		if errors.Is(err, wire.ErrClosed) || errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return rcv.Stats(), err
		}
		if f.Kind == wire.FrameMessage {
			n++
		}
	}
	if n != len(s.msgs) {
		return rcv.Stats(), fmt.Errorf("decoded %d messages from the capture, the run sent %d", n, len(s.msgs))
	}
	return rcv.Stats(), nil
}

// allocCounts are heap allocations per layer over one pass of the pool.
type allocCounts struct {
	track, decode, explore uint64
}

// countAllocs counts the heap allocations of the layers that report
// them, one call at a time, so that the counts repeat exactly: at
// GOMAXPROCS 1 (as testing.AllocsPerRun does) no other goroutine's
// allocations are counted, and with the collector off during the call
// and two collections before it, every sync.Pool starts empty and
// stays untouched by the GC.
func countAllocs(pool []*session) (allocCounts, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(fn func() error) (uint64, error) {
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := fn()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, err
	}
	var a allocCounts
	for _, s := range pool {
		n, _ := count(func() error { s.track(); return nil })
		a.track += n
		n, err := count(func() error { _, err := s.decode(); return err })
		if err != nil {
			return a, err
		}
		a.decode += n
		comp, err := lattice.NewComputation(s.initial, s.threads, s.msgs)
		if err != nil {
			return a, err
		}
		n, err = count(func() error {
			_, err := predict.Analyze(s.mon, comp, predict.Options{Counterexamples: true})
			return err
		})
		if err != nil {
			return a, err
		}
		a.explore += n
	}
	return a, nil
}

// observedStates is the observed run's sequence of global states over
// the relevant variables: the initial state, then one state per
// relevant write in emission order.
func observedStates(initial logic.State, msgs []event.Message) []logic.State {
	states := []logic.State{initial}
	cur := initial
	for _, m := range msgs {
		if m.Event.Kind.IsChannel() {
			continue
		}
		cur = cur.With(m.Event.Var, m.Event.Value)
		states = append(states, cur)
	}
	return states
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// layerSelf is one layer's mean self time per session.
type layerSelf struct {
	layer string
	self  time.Duration
}

// pipelineSelfTimes returns each layer's mean self time per session
// over the pipeline spans, largest first. A layer is a span name up to
// its first dot; a span's self time is its duration minus the part its
// children cover. Each pipeline span name is averaged over the traces
// that recorded it and the names of one layer are summed, so spans
// from the replay and from the live-daemon sessions combine per
// session.
func pipelineSelfTimes(spans []tracing.SpanData) []layerSelf {
	children := map[tracing.SpanID]time.Duration{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] += sp.End.Sub(sp.Start)
		}
	}
	type acc struct {
		total time.Duration
		n     int
	}
	byName := map[string]*acc{}
	for _, sp := range spans {
		if sp.Attrs["role"] != "pipeline" {
			continue
		}
		a := byName[sp.Name]
		if a == nil {
			a = &acc{}
			byName[sp.Name] = a
		}
		a.total += sp.End.Sub(sp.Start) - children[sp.ID]
		a.n++
	}
	byLayer := map[string]time.Duration{}
	for name, a := range byName {
		layer, _, _ := strings.Cut(name, ".")
		byLayer[layer] += a.total / time.Duration(a.n)
	}
	out := make([]layerSelf, 0, len(byLayer))
	for l, d := range byLayer {
		out = append(out, layerSelf{l, d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].layer < out[j].layer
	})
	return out
}
