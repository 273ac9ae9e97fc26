package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/msg"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/sched"
)

// program is one MTL program of a workload, checked against one or
// more of the workload's specs.
type program struct {
	name   string
	source string
	specs  []string
}

// workload is one traffic mix: the specs gompaxd is started with and
// the programs the clients run against them.
type workload struct {
	name  string
	specs map[string]string // spec name -> formula, passed as -spec
	progs []program
	// seedsPerPair is how many scheduler seeds each (program, spec)
	// pair gets in the session pool.
	seedsPerPair int
	// predictedTop is the pipeline layer expected to have the largest
	// self time; the traced pass reports whether it does.
	predictedTop string
}

// Wide-lattice sizing: PulseViolating(4, widePulses, 1) explores
// (2*widePulses+1)^4 cuts per session, 6,561 at 4 pulses.
const widePulses = 4

// Deep-fanin sizing: DeepFanIn(deepThreads, deepRounds) sends
// deepThreads*deepRounds hub writes, each with a deepThreads-wide clock.
const (
	deepThreads = 256
	deepRounds  = 6
)

func workloads() []workload {
	return []workload{
		{
			name: "paper-mix",
			specs: map[string]string{
				"landing":  progs.LandingProperty,
				"crossing": progs.CrossingProperty,
				"account":  progs.AccountProperty,
				"mutex":    progs.MutualExclusion,
				"chan":     progs.ChanProperty,
			},
			progs: []program{
				{"landing", progs.Landing, []string{"landing"}},
				{"crossing", progs.Crossing, []string{"crossing"}},
				{"account", progs.Account, []string{"account"}},
				{"peterson", progs.Peterson, []string{"mutex"}},
				{"peterson-broken", progs.PetersonBroken, []string{"mutex"}},
				{"chan-pipeline", progs.ChanPipeline(3), []string{"chan"}},
				{"chan-send-on-closed", progs.ChanSendOnClosed(2), []string{"chan"}},
				{"chan-lost-message", progs.ChanLostMessage(3, 1), []string{"chan"}},
				{"chan-partial-deadlock", progs.ChanPartialDeadlock(2), []string{"chan"}},
			},
			seedsPerPair: 8,
			predictedTop: "serve",
		},
		{
			name: "wide-lattice",
			specs: map[string]string{
				"all-raised": `!(v0 = 1 /\ v1 = 1 /\ v2 = 1 /\ v3 = 1)`,
				"sum-bound":  `v0 + v1 + v2 + v3 <= 4`,
			},
			progs: []program{
				{fmt.Sprintf("pulse-4x%d", widePulses), progs.PulseViolating(4, widePulses, 1), []string{"all-raised", "sum-bound"}},
			},
			seedsPerPair: 8,
			predictedTop: "predict",
		},
		{
			name: "deep-fanin",
			specs: map[string]string{
				"hub-nonneg": `hub >= 0`,
				"hub-below":  `hub < 256`,
			},
			progs: []program{
				{fmt.Sprintf("deep-fanin-%dx%d", deepThreads, deepRounds), progs.DeepFanIn(deepThreads, deepRounds), []string{"hub-nonneg", "hub-below"}},
			},
			seedsPerPair: 4,
			predictedTop: "predict",
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// specNames returns the workload's spec names, sorted.
func (w workload) specNames() []string {
	names := make([]string, 0, len(w.specs))
	for name := range w.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// reference is the offline oracle's answer for one session: what the
// daemon's VERDICT line must say.
type reference struct {
	Verdict    string // "ok" or "violation"
	Violations int    // distinct violating cuts
	Cuts       int
	// Reports is the offline analyzer's own violation count, one per
	// (cut, monitor state); it can exceed Violations.
	Reports int
}

// session is one seeded client session: the program, the spec it is
// checked against, the scheduler seed, the offline reference and the
// recorded wire capture.
type session struct {
	id      int
	prog    string
	spec    string
	seed    int64
	code    *mtl.Compiled
	formula logic.Formula
	mon     *monitor.Program
	policy  mvc.Policy
	initial logic.State
	threads int

	ref     reference
	msgs    []event.Message // relevant messages in emission order
	raw     []event.Event   // every event of the run, for replaying Algorithm A
	capture []byte          // the Hello..Bye byte stream RunStreaming writes
}

// preparePool builds the workload's session pool from the workload
// seed: every (program, spec) pair gets seedsPerPair scheduler seeds
// drawn from one seeded stream, and every session gets its offline
// reference and wire capture.
func preparePool(w workload, seed int64) ([]*session, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []*session
	for _, p := range w.progs {
		parsed, err := mtl.Parse(p.source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		for _, specName := range p.specs {
			f, err := logic.ParseFormula(w.specs[specName])
			if err != nil {
				return nil, fmt.Errorf("spec %s: %w", specName, err)
			}
			mon, err := monitor.Compile(f)
			if err != nil {
				return nil, fmt.Errorf("spec %s: %w", specName, err)
			}
			for k := 0; k < w.seedsPerPair; k++ {
				// Each session compiles its own copy: the two clients
				// never share a compiled program.
				code, err := mtl.Compile(parsed)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", p.name, err)
				}
				initial, err := instrument.InitialState(code.Prog, f)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", p.name, specName, err)
				}
				s := &session{
					id: len(pool), prog: p.name, spec: specName, seed: rng.Int63(),
					code: code, formula: f, mon: mon,
					policy: instrument.PolicyFor(f), initial: initial, threads: len(code.Threads),
				}
				if err := s.prepare(); err != nil {
					return nil, fmt.Errorf("%s/%s seed %d: %w", p.name, specName, s.seed, err)
				}
				pool = append(pool, s)
			}
		}
	}
	return pool, nil
}

// prepare computes the session's offline reference and wire capture.
func (s *session) prepare() error {
	out, err := s.run()
	if err != nil {
		return err
	}
	s.msgs = out.Messages
	s.ref, err = offlineReference(s.mon, s.initial, s.threads, s.msgs)
	if err != nil {
		return err
	}
	// With every event relevant, the emitted messages carry the whole
	// run's events in order.
	all, err := runWith(s.code, mvc.Everything(), s.seed)
	if err != nil {
		return err
	}
	for _, m := range all.Messages {
		s.raw = append(s.raw, m.Event)
	}
	var buf bytes.Buffer
	if err := s.stream(&buf); err != nil {
		return err
	}
	s.capture = buf.Bytes()
	return nil
}

// run is the instrumented run, collecting the relevant messages. A
// run that ends in a (partial) deadlock is a complete session, just as
// the streaming client treats it.
func (s *session) run() (instrument.RunOutput, error) {
	return runWith(s.code, s.policy, s.seed)
}

func runWith(code *mtl.Compiled, policy mvc.Policy, seed int64) (instrument.RunOutput, error) {
	out, err := instrument.Run(code, policy, sched.NewRandom(seed), 0)
	var dl *sched.DeadlockError
	if errors.As(err, &dl) {
		err = nil
	}
	return out, err
}

// stream runs the instrumented program once more and writes the whole
// session (Hello through Bye) to w, as a gompax -connect client does.
func (s *session) stream(w io.Writer) error {
	return instrument.RunStreaming(s.code, s.policy, s.initial, sched.NewRandom(s.seed), 0, w)
}

// offlineReference is the oracle: lattice reconstruction and the
// sequential offline explorer, plus the message-passing analyses for
// sessions with channel events. The online analyzer gompaxd runs
// reports one violation per violating cut, while the offline explorer
// reports one per (cut, monitor state), so the verdict line is checked
// against the number of distinct violating cuts.
func offlineReference(mon *monitor.Program, initial logic.State, threads int, msgs []event.Message) (reference, error) {
	comp, err := lattice.NewComputation(initial, threads, msgs)
	if err != nil {
		return reference{}, err
	}
	res, err := predict.Analyze(mon, comp, predict.Options{Counterexamples: true})
	if err != nil {
		return reference{}, err
	}
	cuts := map[string]bool{}
	for _, v := range res.Violations {
		cuts[v.Cut.Key()] = true
	}
	ref := reference{Verdict: "ok", Violations: len(cuts), Cuts: res.Stats.Cuts, Reports: len(res.Violations)}
	var chanMsgs []event.Message
	for _, m := range msgs {
		if m.Event.Kind.IsChannel() {
			chanMsgs = append(chanMsgs, m)
		}
	}
	findings := 0
	if len(chanMsgs) > 0 {
		findings = len(msg.Analyze(chanMsgs, msg.Options{Complete: true, Predictive: true}).Findings)
	}
	if ref.Violations > 0 || findings > 0 {
		ref.Verdict = "violation"
	}
	return ref, nil
}

// check compares a daemon verdict with the session's reference.
func (s *session) check(verdict string, violations, cuts int, degraded bool) error {
	if verdict != s.ref.Verdict || violations != s.ref.Violations || cuts != s.ref.Cuts || degraded {
		return fmt.Errorf("session %d (%s/%s seed %d): daemon said verdict=%s violations=%d cuts=%d degraded=%t, reference verdict=%s violations=%d cuts=%d",
			s.id, s.prog, s.spec, s.seed, verdict, violations, cuts, degraded, s.ref.Verdict, s.ref.Violations, s.ref.Cuts)
	}
	return nil
}
