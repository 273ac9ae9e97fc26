package predict

import (
	"runtime"
	"sort"
	"sync"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
)

// This file implements the parallel level-by-level lattice explorer.
//
// The sequential analyzers (Analyze in predict.go, Online in online.go)
// expand one frontier cut at a time on one goroutine. The parallel
// explorer splits each level's frontier across a worker pool and
// expands successor cuts concurrently, deduplicating them in a sharded
// cut table keyed by the cut's clock vector (lattice.Sharded), so
// workers only contend when two paths genuinely merge into the same
// cut — and even then only on that cut's own mutex.
//
// Invariants shared with the sequential path (see DESIGN.md §8):
//
//   - Level barrier: level k+1 is sealed (every successor of every
//     level-k cut interned, every monitor state stepped and merged)
//     before any level-k+2 work starts; level k is retired at the
//     barrier. At most two adjacent levels are ever alive — the
//     paper's memory bound is preserved.
//   - Set semantics: the set of cuts per level, the set of monitor
//     states per cut, and the set of violating (cut, monitor state)
//     pairs are pure functions of the computation and formula, so they
//     are identical however parents are scheduled across workers.
//   - Deterministic reports: violations discovered within a level are
//     sorted canonically (cut key, then monitor key) at the barrier,
//     making the parallel explorer's output identical run to run.

// succFn enumerates the consistent single-event extensions of one
// frontier entry. For each extension it yields the advancing thread,
// the 1-based index of the applied event within that thread, the
// successor's interned counts and the event itself; the successor's
// state is derived from the message only if the cut is new (see
// stepper.edge). worker identifies the calling goroutine (0 ≤ worker <
// pool size; 0 on the sequential paths), so an implementation may keep
// per-worker scratch. Implementations must be safe for concurrent
// calls with distinct entries and workers. All counts yielded within
// one analysis must come from one interning table, so Refs compare by
// identity everywhere below.
type succFn func(ent *pentry, worker int, yield func(thread, index int, counts clock.Ref, m *event.Message))

// levelViolation is a violating (cut, monitor state) pair found while
// expanding one level, before deduplication and reporting.
type levelViolation struct {
	counts clock.Ref
	state  logic.State
	mkey   uint64
	path   *pathNode
}

// levelOut is one sealed level.
type levelOut struct {
	next      []*pentry // the new frontier, sorted by cut key
	viols     []levelViolation
	newCuts   int // distinct cuts interned this level
	pairs     int // (cut, monitor state) pairs stepped
	pairWidth int // pairs alive in the sealed level
	edges     int // successor edges expanded (edges-newCuts = dedup hits)
	violated  int // violating pairs found, before per-level dedup
}

// normalizeWorkers maps the Options.Workers knob to a pool size:
// 0 and 1 select the sequential path, n>1 selects n workers, and a
// negative value selects GOMAXPROCS.
func normalizeWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// expandLevelParallel seals the next level: every entry's successors
// are interned, monitor states stepped and merged, and violations
// collected. Workers claim parent entries round-robin; the call
// returns only after every worker is done (the level barrier).
func expandLevelParallel(prog *monitor.Program, entries []*pentry, succs succFn, workers int, trackPaths bool) (levelOut, error) {
	if workers > len(entries) {
		workers = len(entries)
	}
	if workers < 1 {
		workers = 1
	}
	table := lattice.NewSharded[clock.Ref, *pentry](workers * 8)
	// Live queue depth: parents not yet claimed in the level being
	// expanded. One atomic add per parent entry, not per edge.
	mWorkerQueue.Set(int64(len(entries)))
	defer mWorkerQueue.Set(0)

	outs := make([]levelOut, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := newStepper(prog, trackPaths, true, &outs[w])
			for idx := w; idx < len(entries); idx += workers {
				if errs[w] != nil {
					return
				}
				mWorkerQueue.Add(-1)
				ent := entries[idx]
				succs(ent, w, func(thread, index int, counts clock.Ref, m *event.Message) {
					if errs[w] != nil {
						return
					}
					tgt, created := table.GetOrCreate(counts.Digest(), counts, func() *pentry {
						return &pentry{counts: counts, state: applyMessage(ent.state, *m)}
					})
					errs[w] = st.edge(ent, tgt, created, thread, index, m)
				})
			}
		}(w)
	}
	wg.Wait()

	var out levelOut
	for w := range outs {
		if errs[w] != nil {
			return out, errs[w]
		}
		out.newCuts += outs[w].newCuts
		out.pairs += outs[w].pairs
		out.edges += outs[w].edges
		out.viols = append(out.viols, outs[w].viols...)
	}

	// Seal the level: collect and order the new frontier, count the
	// surviving pairs, and canonicalize the violation list.
	table.Range(func(_ clock.Ref, e *pentry) { out.next = append(out.next, e) })
	sort.Slice(out.next, func(i, j int) bool { return clock.Compare(out.next[i].counts, out.next[j].counts) < 0 })
	for _, e := range out.next {
		out.pairWidth += e.keys.n
	}
	out.violated = len(out.viols)
	sortLevelViolations(out.viols)
	out.viols = dedupLevelViolations(out.viols)
	return out, nil
}

// sortLevelViolations orders a level's violations canonically: by cut
// clock (component-lexicographic), then monitor key, then
// representative path.
func sortLevelViolations(vs []levelViolation) {
	sort.Slice(vs, func(i, j int) bool {
		if c := clock.Compare(vs[i].counts, vs[j].counts); c != 0 {
			return c < 0
		}
		if vs[i].mkey != vs[j].mkey {
			return vs[i].mkey < vs[j].mkey
		}
		return comparePaths(vs[i].path, vs[j].path) < 0
	})
}

// dedupLevelViolations collapses violations of the same (cut, monitor
// state) pair reached from several parents, keeping the canonically
// first representative. The input must be sorted.
func dedupLevelViolations(vs []levelViolation) []levelViolation {
	out := vs[:0]
	for i, v := range vs {
		if i > 0 && vs[i-1].mkey == v.mkey && clock.Equal(vs[i-1].counts, v.counts) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// analyzeParallel is Analyze with a worker pool: identical exploration
// semantics, with each level's frontier split across workers and cuts
// deduplicated through the sharded table. It is selected by
// Options.Workers (see Analyze).
func analyzeParallel(prog *monitor.Program, comp *lattice.Computation, opts Options, workers int) (Result, error) {
	mAnalyses.With("offline", "parallel").Inc()
	res, root, rootKey, done, err := analyzeRoot(prog, comp, opts)
	defer func() { finishTelemetry(&res); opts.Progress.finish() }()
	if done || err != nil {
		return res, err
	}
	res.Stats.reserveLevels(totalLevels(comp))

	rootEnt := &pentry{counts: root.Clock(), state: root.State()}
	rootEnt.keys.upsert(rootKey)
	frontier := []*pentry{rootEnt}
	table := comp.Table()
	msgs := make([][]event.Message, comp.Threads())
	for i := range msgs {
		msgs[i] = make([]event.Message, comp.Count(i))
		for k := range msgs[i] {
			msgs[i][k] = comp.Message(i, k+1)
		}
	}
	succs := func(ent *pentry, _ int, yield func(thread, index int, counts clock.Ref, m *event.Message)) {
		for i, ms := range msgs {
			next := int(ent.counts.Get(i)) + 1
			if next > len(ms) {
				continue
			}
			m := &ms[next-1]
			if !clock.LeqExcept(m.Clock, ent.counts, i) {
				continue
			}
			yield(i, next, table.Tick(ent.counts, i), m)
		}
	}

	reported := map[violKey]bool{}
	ls := newLevelSpans(opts.Span)
	for len(frontier) > 0 {
		out, err := expandLevelParallel(prog, frontier, succs, workers, opts.Counterexamples)
		if err != nil {
			return res, err
		}
		res.Stats.Cuts += out.newCuts
		res.Stats.Pairs += out.pairs
		if len(out.next) > 0 {
			res.Stats.addLevel(len(out.next), out.pairWidth)
			flushLevelTelemetry(len(out.next), out.pairWidth, out.newCuts, out.pairs, out.edges, out.violated)
			publishStatus(&res, false)
			ls.seal(res.Stats.Levels-1, len(out.next), out.newCuts)
		}
		if err := checkBudget(opts, &res.Stats, len(out.next)); err != nil {
			return res, err
		}
		stop := reportViolations(&res, out.viols, reported, opts,
			func(ids []int) lattice.Run { return buildRun(comp, ids) })
		opts.Progress.record(&res.Stats, len(out.next), len(res.Violations))
		if stop {
			return res, nil
		}
		frontier = out.next
	}
	return res, nil
}

// violKey identifies a reported (cut, monitor state) pair. Because
// every counts Ref of one analysis is interned in one table, the Ref
// itself is a comparable identity — no string formatting needed.
type violKey struct {
	counts clock.Ref
	mkey   uint64
}

// reportViolations converts a sealed level's canonical violations into
// Result entries, deduplicating against previously reported (cut,
// monitor state) pairs across levels. mkRun reconstructs a
// counterexample run from an encoded path; it is only called when
// Options.Counterexamples is set. The return value reports that
// Options.FirstOnly stops the analysis here.
func reportViolations(res *Result, viols []levelViolation, reported map[violKey]bool, opts Options, mkRun func([]int) lattice.Run) bool {
	for _, vr := range viols {
		vk := violKey{counts: vr.counts, mkey: vr.mkey}
		if reported[vk] {
			continue
		}
		reported[vk] = true
		viol := Violation{
			Cut:   lattice.NewCut(vr.counts, vr.state),
			State: vr.state,
			Level: int(vr.counts.Sum()),
		}
		if opts.Counterexamples {
			run := mkRun(vr.path.ids())
			viol.Run = &run
		}
		res.Violations = append(res.Violations, viol)
		if opts.FirstOnly {
			return true
		}
	}
	return false
}

// analyzeRoot steps the root monitor on the initial state and prepares
// the shared level-0 statistics, returning the root's monitor key.
// done reports that the analysis is already complete (the initial
// state violates the property).
func analyzeRoot(prog *monitor.Program, comp *lattice.Computation, opts Options) (Result, lattice.Cut, uint64, bool, error) {
	var res Result
	root := comp.Root()
	m0 := prog.NewMonitor()
	v0, err := m0.Step(root.State())
	if err != nil {
		return res, root, 0, false, err
	}
	res.Stats = Stats{Cuts: 1, Pairs: 1, Levels: 1, MaxWidth: 1, MaxPairWidth: 1, LevelWidths: []int{1}}
	flushRootTelemetry(v0 == monitor.Violated)
	if v0 == monitor.Violated {
		viol := Violation{Cut: root, State: root.State(), Level: 0}
		if opts.Counterexamples {
			viol.Run = &lattice.Run{States: []logic.State{root.State()}}
		}
		res.Violations = append(res.Violations, viol)
		opts.Progress.record(&res.Stats, 1, 1)
		// A violated monitor state is not propagated: every extension is
		// already reported at its shortest witness.
		return res, root, 0, true, nil
	}
	opts.Progress.record(&res.Stats, 1, 0)
	return res, root, m0.Key(), false, nil
}
