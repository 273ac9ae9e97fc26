// Package replay turns a predicted counterexample run (a sequence of
// relevant events consistent with the observed causality) into a
// concrete thread schedule of the program, and re-executes it. This
// closes the loop on the paper's claim that every lattice path "can
// occur under a different thread scheduling": the synthesized schedule
// is executed by the deterministic interpreter, and the single-trace
// checker then observes the violation directly.
//
// The synthesis is a depth-first search over machine states, pruned so
// the relevant-event emission matches the target run prefix at every
// step; by Theorem 3 such a schedule always exists when the target is
// a linearization of the observed computation's relevant causality.
package replay

import (
	"fmt"
	"slices"

	"gompax/internal/event"
	"gompax/internal/interp"
	"gompax/internal/lattice"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/sched"
)

// maxSynthesisSteps bounds the total Step calls the search may make,
// protecting against non-terminating programs.
const maxSynthesisSteps = 1 << 21

// maxSynthesisDepth bounds the schedule length the search considers.
// Programs with busy-wait loops admit arbitrarily long schedules (a
// spinning thread can be scheduled any number of times); a *minimal*
// schedule for a realizable target never needs more steps than the
// threads' productive work, so deep branches are pure spin and are cut
// off rather than recursed into (they would otherwise overflow the
// stack before the step budget ran out).
const maxSynthesisDepth = 1 << 13

// Synthesize finds a thread schedule whose instrumented execution
// emits the target relevant-event sequence as a prefix of its relevant
// events (counterexample runs are prefixes of the computation: they
// stop at the violating state). policy must be the relevance policy
// the target run was produced with.
func Synthesize(code *mtl.Compiled, policy mvc.Policy, target []event.Message) ([]int, error) {
	// The machine runs with a recording hook; the tracker is not needed
	// for synthesis — only which relevant events fire, in order.
	rec := &relevantRecorder{policy: policy, target: target}
	m := interp.NewMachine(code, rec)

	var schedule []int
	steps := 0
	// Memoize (machine state, match progress) pairs: busy-wait loops
	// revisit identical states every iteration, and without pruning the
	// search would spin down those branches forever.
	visited := map[string]bool{}
	var dfs func() (bool, error)
	dfs = func() (bool, error) {
		if rec.mismatch {
			return false, nil
		}
		if rec.matched == len(target) {
			return true, nil
		}
		if len(schedule) >= maxSynthesisDepth {
			return false, nil
		}
		key := fmt.Sprintf("%d|%s", rec.matched, m.StateKey())
		if visited[key] {
			return false, nil
		}
		visited[key] = true
		// Stepping and restoring rewrite the machine's runnable set in
		// place: iterate a copy.
		runnable := slices.Clone(m.Runnable())
		for _, tid := range runnable {
			steps++
			if steps > maxSynthesisSteps {
				return false, fmt.Errorf("replay: schedule synthesis exceeded %d steps", maxSynthesisSteps)
			}
			snap := m.Snapshot()
			recSnap := *rec
			kind, err := m.Step(tid)
			if err != nil {
				// Runtime errors on some interleavings (e.g. division by
				// zero reachable only on this path) just prune the branch.
				m.Restore(snap)
				*rec = recSnap
				continue
			}
			if kind == interp.Blocked && m.Status(tid) == interp.BlockedLock {
				m.Restore(snap)
				*rec = recSnap
				continue
			}
			if !rec.mismatch {
				schedule = append(schedule, tid)
				ok, err := dfs()
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
				schedule = schedule[:len(schedule)-1]
			}
			m.Restore(snap)
			*rec = recSnap
		}
		return false, nil
	}
	ok, err := dfs()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("replay: no schedule realizes the target run (is it a linearization of this program's causality?)")
	}
	return append([]int(nil), schedule...), nil
}

// relevantRecorder implements interp.Hooks, tracking how far the
// execution's relevant-event stream matches the target.
type relevantRecorder struct {
	policy   mvc.Policy
	target   []event.Message
	matched  int
	mismatch bool
}

func (r *relevantRecorder) observe(e event.Event) {
	if !r.policy.Relevant(e) {
		return
	}
	if r.matched >= len(r.target) {
		r.mismatch = true
		return
	}
	want := r.target[r.matched].Event
	if want.Thread != e.Thread || want.Var != e.Var || want.Value != e.Value || want.Kind != e.Kind {
		r.mismatch = true
		return
	}
	r.matched++
}

func (r *relevantRecorder) Read(tid int, name string, val int64) {
	r.observe(event.Event{Thread: tid, Kind: event.Read, Var: name, Value: val})
}
func (r *relevantRecorder) Write(tid int, name string, val int64) {
	r.observe(event.Event{Thread: tid, Kind: event.Write, Var: name, Value: val})
}
func (r *relevantRecorder) Acquire(tid int, lock string) {
	r.observe(event.Event{Thread: tid, Kind: event.Acquire, Var: lock})
}
func (r *relevantRecorder) Release(tid int, lock string) {
	r.observe(event.Event{Thread: tid, Kind: event.Release, Var: lock})
}
func (r *relevantRecorder) Signal(tid int, cond string) {
	r.observe(event.Event{Thread: tid, Kind: event.Signal, Var: cond})
}
func (r *relevantRecorder) WaitResume(tid int, cond string) {
	r.observe(event.Event{Thread: tid, Kind: event.WaitResume, Var: cond})
}
func (r *relevantRecorder) Internal(tid int) {
	r.observe(event.Event{Thread: tid, Kind: event.Internal})
}
func (r *relevantRecorder) Spawn(parent, _ int) {
	r.observe(event.Event{Thread: parent, Kind: event.Spawn})
}

// Confirm synthesizes a schedule for the counterexample run and
// re-executes the program under it with fresh instrumentation,
// returning the replayed run's relevant messages — the counterexample
// is their prefix; events after the script runs out come from the
// fallback scheduling that lets the program finish. The caller can
// then apply the single-trace checker to confirm the predicted
// violation on a real execution.
func Confirm(code *mtl.Compiled, policy mvc.Policy, run lattice.Run) ([]event.Message, []int, error) {
	schedule, err := Synthesize(code, policy, run.Msgs)
	if err != nil {
		return nil, nil, err
	}
	col := &mvc.Collector{}
	tracker := mvc.NewTracker(len(code.Threads), policy, col)
	m := interp.NewMachine(code, trackerHooks{tracker})
	// The epilogue after the script is best-effort: bound it so a
	// program that cannot finish from the violating state (e.g. a spin
	// loop the counterexample deliberately starves) does not hang the
	// confirmation. The prefix containing the violation has executed
	// either way.
	maxEvents := uint64(len(schedule)) + 100_000
	if _, err := sched.Run(m, &sched.Scripted{Seq: schedule}, maxEvents); err != nil {
		if uint64(len(col.Messages)) < uint64(len(run.Msgs)) {
			return nil, nil, fmt.Errorf("replay: synthesized schedule failed to execute: %w", err)
		}
	}
	return col.Messages, schedule, nil
}

// trackerHooks adapts an mvc.Tracker to interp.Hooks without pulling
// in the instrument package (avoiding an import cycle in tests).
type trackerHooks struct{ t *mvc.Tracker }

func (h trackerHooks) Read(tid int, name string, val int64)  { h.t.Read(tid, name, val) }
func (h trackerHooks) Write(tid int, name string, val int64) { h.t.Write(tid, name, val) }
func (h trackerHooks) Acquire(tid int, lock string)          { h.t.Acquire(tid, lock) }
func (h trackerHooks) Release(tid int, lock string)          { h.t.Release(tid, lock) }
func (h trackerHooks) Signal(tid int, cond string)           { h.t.Signal(tid, cond) }
func (h trackerHooks) WaitResume(tid int, cond string)       { h.t.WaitResume(tid, cond) }
func (h trackerHooks) Internal(tid int)                      { h.t.Internal(tid) }
func (h trackerHooks) Spawn(parent, _ int)                   { h.t.Fork(parent) }
