package predict

import (
	"fmt"
	"sort"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
)

// Online is the incremental analyzer of §4: "one can buffer [events]
// at the observer's side and then build the lattice on a level-by-level
// basis in a top-down manner, as the events become available", with
// the analysis performed in parallel and earlier levels garbage
// collected.
//
// Messages may arrive in any order; each is buffered until its
// per-thread predecessors are present (the message's own clock
// component gives its position). The frontier advances one full level
// at a time, as soon as every event the level could need is either
// delivered or ruled out by a thread-completion notice. Violations are
// reported as soon as the level containing them is analyzed.
type Online struct {
	prog    *monitor.Program
	initial logic.State
	threads int

	events    [][]event.Message          // contiguous prefixes per thread
	pending   []map[uint64]event.Message // buffered out-of-order messages
	final     []bool                     // thread will send no more deliverable messages
	announced []bool                     // thread-done notice received
	applied   int                        // events consumed into the frontier

	// table interns the cut clocks the analysis mints, so frontier Refs
	// compare by identity and Ticks share structure with their parents.
	table *clock.Table
	// frontier holds the current level's entries sorted by cut clock
	// (the shared pentry of entry.go; each entry's key set maps each
	// reachable monitor state to one representative path, nil unless
	// Counterexamples was set).
	frontier []*pentry
	// scanEnt and scanThread are where ready's scan of the frontier's
	// (entry, thread) pairs stopped, and stallNeed (0: none) is the
	// candidate position the pair there waits for. Every pair before it
	// was found unblocked and stays so — events are only appended and
	// threads only finish — so a Feed that does not unblock the stalled
	// pair costs O(1), and a scan never revisits a pair. All three are
	// reset whenever the frontier is replaced.
	scanEnt    int
	scanThread int
	stallNeed  int
	// counts is the scratch vector expandSuccessors and ready
	// materialize a frontier entry's counts into (one traversal per
	// entry instead of one Get per thread); workerCounts holds one per
	// goroutine when Workers > 1. countsArr backs counts at the
	// paper's widths, so those sessions allocate nothing for it.
	counts       []uint64
	countsArr    [inlineThreads]uint64
	workerCounts [][]uint64
	// blockers caches, per thread, a witness that its candidate event
	// cannot extend cuts below it (see extends). Sequential path only:
	// the worker pool skips the cache rather than share it.
	blockers    []blocker
	blockersArr [inlineThreads]blocker

	result   Result
	maxCuts  int
	maxWidth int
	paths    bool
	lossy    bool
	workers  int
	closed   bool
	progress *Progress
	ls       levelSpans

	// reportedViols holds the (cut, state) identity of every reported
	// violation, so each level checks only the violations it appends.
	reportedViols map[violSeen]bool
}

// NewOnline starts an online analysis session. The root monitor is
// stepped on the initial state immediately, so a property violated by
// the initial state is reported before any event arrives.
func NewOnline(prog *monitor.Program, initial logic.State, threads int, opts Options) (*Online, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("predict: online analysis needs a positive thread count")
	}
	o := &Online{
		prog:      prog,
		initial:   initial,
		threads:   threads,
		events:    make([][]event.Message, threads),
		pending:   make([]map[uint64]event.Message, threads),
		final:     make([]bool, threads),
		announced: make([]bool, threads),
		table:     clock.NewTable(),
		maxCuts:   opts.MaxCuts,
		maxWidth:  opts.MaxWidth,
		paths:     opts.Counterexamples,
		lossy:     opts.Lossy,
		workers:   normalizeWorkers(opts.Workers),
		progress:  opts.Progress,
		ls:        newLevelSpans(opts.Span),
	}
	for i := range o.pending {
		o.pending[i] = map[uint64]event.Message{}
	}
	o.counts = o.countsArr[:0]
	switch {
	case o.workers > 1:
		o.workerCounts = make([][]uint64, o.workers)
	case threads <= inlineThreads:
		o.blockers = o.blockersArr[:threads]
	default:
		o.blockers = make([]blocker, threads)
	}
	m := prog.NewMonitor()
	verdict, err := m.Step(initial)
	if err != nil {
		return nil, err
	}
	mAnalyses.With("online", explorerLabel(o.workers)).Inc()
	o.result.Stats = Stats{Cuts: 1, Pairs: 1, Levels: 1, MaxWidth: 1, MaxPairWidth: 1, LevelWidths: []int{1}}
	// The stream length is unknown up front; seed a capacity that
	// covers most sessions and let append double beyond it.
	o.result.Stats.reserveLevels(64)
	flushRootTelemetry(verdict == monitor.Violated)
	root := lattice.NewCut(clock.Ref{}, initial)
	if verdict == monitor.Violated {
		viol := Violation{Cut: root, State: initial, Level: 0}
		if o.paths {
			viol.Run = &lattice.Run{States: []logic.State{initial}}
		}
		o.result.Violations = append(o.result.Violations, viol)
		o.progress.record(&o.result.Stats, 1, 1)
		return o, nil
	}
	o.progress.record(&o.result.Stats, 1, 0)
	rootEnt := &pentry{counts: root.Clock(), state: initial}
	rootEnt.keys.upsert(m.Key())
	o.setFrontier([]*pentry{rootEnt})
	return o, nil
}

// Feed delivers one observer message (any order) and advances the
// analysis as far as the delivered events allow. In lossy mode a
// message that cannot be accepted (duplicate, unknown thread, arrival
// after the thread completed) is counted in the degradation report
// and ignored instead of failing the session.
func (o *Online) Feed(m event.Message) error {
	if err := o.buffer(m); err != nil {
		if o.lossy {
			o.result.Degrade().Rejected++
			return nil
		}
		return err
	}
	return o.advance()
}

// buffer validates and enqueues one message without advancing.
func (o *Online) buffer(m event.Message) error {
	if o.closed {
		return fmt.Errorf("predict: Feed after Close")
	}
	i := m.Event.Thread
	if i < 0 || i >= o.threads {
		return fmt.Errorf("predict: message for unknown thread %d", i)
	}
	k := m.Clock.Get(i)
	if k == 0 {
		return fmt.Errorf("predict: message %v has zero own clock component", m)
	}
	if o.final[i] {
		return fmt.Errorf("predict: message for completed thread %d", i)
	}
	if k <= uint64(len(o.events[i])) {
		return fmt.Errorf("predict: duplicate message for thread %d position %d", i, k)
	}
	if _, dup := o.pending[i][k]; dup {
		return fmt.Errorf("predict: duplicate message for thread %d position %d", i, k)
	}
	o.pending[i][k] = m
	// Absorb any now-contiguous prefix.
	for {
		next := uint64(len(o.events[i])) + 1
		msg, ok := o.pending[i][next]
		if !ok {
			break
		}
		delete(o.pending[i], next)
		o.events[i] = append(o.events[i], msg)
	}
	// A late gap-filler can complete a thread whose done notice
	// already arrived.
	if o.announced[i] && len(o.pending[i]) == 0 {
		o.final[i] = true
	}
	return nil
}

// FinishThread declares that a thread will send no further messages.
// In lossy mode a completion notice that arrives while the thread
// still has undeliverable out-of-order messages does not fail the
// session: the thread stays open so late gap-fillers can still land,
// and Close truncates whatever remains missing.
func (o *Online) FinishThread(i int) error {
	if i < 0 || i >= o.threads {
		if o.lossy {
			o.result.Degrade().Rejected++
			return nil
		}
		return fmt.Errorf("predict: unknown thread %d", i)
	}
	o.announced[i] = true
	if len(o.pending[i]) > 0 {
		if !o.lossy {
			return fmt.Errorf("predict: thread %d finished with %d undeliverable out-of-order messages", i, len(o.pending[i]))
		}
		return nil // keep the thread open for late gap-fillers
	}
	o.final[i] = true
	return o.advance()
}

// Violations returns the violations found so far.
func (o *Online) Violations() []Violation { return o.result.Violations }

// Level returns the lattice level of the current frontier.
func (o *Online) Level() int { return o.result.Stats.Levels - 1 }

// Close marks every thread complete, drains the analysis and returns
// the final result. In strict mode a delivery gap is an error; in
// lossy mode (Options.Lossy or CloseLossy) each thread's stream is
// truncated at its first gap, the loss is recorded in Result.Degraded,
// and the partial result is returned without error.
func (o *Online) Close() (Result, error) {
	if o.closed {
		return o.result, nil
	}
	if o.lossy {
		o.truncateGaps()
	} else {
		for i := 0; i < o.threads; i++ {
			if len(o.pending[i]) > 0 {
				return o.result, fmt.Errorf("predict: thread %d has a gap: %d out-of-order messages never became deliverable", i, len(o.pending[i]))
			}
		}
	}
	for i := range o.final {
		o.final[i] = true
	}
	if err := o.advance(); err != nil {
		return o.result, err
	}
	o.closed = true
	total := 0
	for i := range o.events {
		total += len(o.events[i])
	}
	if o.applied < total && len(o.frontier) > 0 {
		if !o.lossy {
			return o.result, fmt.Errorf("predict: analysis stalled with %d of %d events applied", o.applied, total)
		}
		o.result.Degrade().Stalled = true
	}
	finishTelemetry(&o.result)
	o.progress.record(&o.result.Stats, len(o.frontier), len(o.result.Violations))
	o.progress.finish()
	return o.result, nil
}

// CloseLossy closes the analysis tolerantly regardless of how it was
// opened: the observer uses it when it discovers mid-session (a stalled
// channel, a torn stream) that the session can no longer complete.
func (o *Online) CloseLossy() (Result, error) {
	o.lossy = true
	return o.Close()
}

// Partial returns a snapshot of the result accumulated so far without
// closing the analysis — the violations and statistics of every level
// fully analyzed to date. Callers use it to salvage the work done
// before an unrecoverable session error.
func (o *Online) Partial() Result { return o.result }

// truncateGaps cuts each thread's stream at its first delivery gap,
// recording the loss and a lower bound on the lattice cuts that became
// unexplorable (the frontier successors whose event is known lost).
func (o *Online) truncateGaps() {
	for i := 0; i < o.threads; i++ {
		if len(o.pending[i]) == 0 {
			continue
		}
		d := o.result.Degrade()
		// Events buffered beyond the gap prove the sender produced at
		// least maxPos events; successors needing a lost one of those
		// can never be explored.
		maxPos := uint64(len(o.events[i]))
		for k := range o.pending[i] {
			if k > maxPos {
				maxPos = k
			}
		}
		delivered := uint64(len(o.events[i]))
		for _, ent := range o.frontier {
			need := ent.counts.Get(i) + 1
			if need > delivered && need <= maxPos {
				d.UnexplorableCuts++
			}
		}
		d.Threads = append(d.Threads, ThreadLoss{
			Thread:    i,
			Delivered: int(delivered),
			Dropped:   len(o.pending[i]),
			FirstGap:  delivered + 1,
		})
		o.pending[i] = map[uint64]event.Message{}
	}
}

// ready reports whether the current frontier's successor set is fully
// determined: every (entry, thread) pair either has its candidate
// event delivered or is known to have none. The scan resumes at the
// pair that stalled the previous call (see scanEnt).
func (o *Online) ready() bool {
	if o.stallNeed > 0 {
		if i := o.scanThread; o.stallNeed > len(o.events[i]) && !o.final[i] {
			return false // the candidate may still arrive
		}
		o.stallNeed = 0
		o.scanThread++
	}
	for ; o.scanEnt < len(o.frontier); o.scanEnt, o.scanThread = o.scanEnt+1, 0 {
		o.counts = o.frontier[o.scanEnt].counts.AppendTo(o.counts[:0])
		for ; o.scanThread < o.threads; o.scanThread++ {
			i := o.scanThread
			if need := int(countAt(o.counts, i)) + 1; need > len(o.events[i]) && !o.final[i] {
				o.stallNeed = need
				return false
			}
		}
	}
	return true
}

// setFrontier replaces the frontier and restarts ready's scan.
func (o *Online) setFrontier(f []*pentry) {
	o.frontier, o.scanEnt, o.scanThread, o.stallNeed = f, 0, 0, 0
}

// advance expands complete levels until blocked on undelivered events.
// With Options.Workers > 1 each level's frontier is split across the
// worker pool of parallel.go; either way one full level is sealed per
// iteration, so at most two adjacent levels are alive at any time.
func (o *Online) advance() error {
	for len(o.frontier) > 0 && o.ready() {
		var out levelOut
		var err error
		if o.workers > 1 {
			out, err = o.expandLevelWorkers()
		} else {
			out, err = o.expandLevelSequential()
		}
		if err != nil {
			return err
		}
		if len(out.next) == 0 {
			// Frontier entries have no available successors at all:
			// analysis of delivered events is complete.
			if o.allFinal() {
				o.setFrontier(nil)
			}
			return nil
		}
		// One event of each path is consumed per level.
		o.applied++
		o.result.Stats.Cuts += out.newCuts
		o.result.Stats.Pairs += out.pairs
		o.result.Stats.addLevel(len(out.next), out.pairWidth)
		flushLevelTelemetry(len(out.next), out.pairWidth, out.newCuts, out.pairs, out.edges, out.violated)
		publishStatus(&o.result, false)
		o.ls.seal(o.result.Stats.Levels-1, len(out.next), out.newCuts)
		if err := checkBudget(Options{MaxCuts: o.maxCuts, MaxWidth: o.maxWidth}, &o.result.Stats, len(out.next)); err != nil {
			return err
		}
		o.setFrontier(out.next)
		// The level's violations arrive canonically sorted and deduped
		// per (cut, monitor state); several monitor states can still
		// violate at one cut, so keep reports unique per (cut, state).
		for _, vr := range out.viols {
			o.reportViolation(vr)
		}
		o.progress.record(&o.result.Stats, len(o.frontier), len(o.result.Violations))
	}
	return nil
}

// expandSuccessors enumerates the consistent single-event extensions
// of one frontier entry from the delivered per-thread event prefixes.
// It is the online succFn: safe for concurrent calls with distinct
// entries and workers because the event buffers are not mutated
// during a level and each worker has its own counts scratch. The
// entry's counts are read once, in one traversal, so the per-thread
// work does not grow with the clock's width.
func (o *Online) expandSuccessors(ent *pentry, worker int, yield func(thread, index int, counts clock.Ref, m *event.Message)) {
	buf := &o.counts
	if o.workerCounts != nil {
		buf = &o.workerCounts[worker]
	}
	counts := ent.counts.AppendTo((*buf)[:0])
	*buf = counts
	for i := 0; i < o.threads; i++ {
		need := int(countAt(counts, i)) + 1
		if need > len(o.events[i]) {
			continue
		}
		msg := &o.events[i][need-1]
		if !o.extends(msg.Clock, ent.counts, counts, i, need) {
			continue
		}
		yield(i, need, o.table.Tick(ent.counts, i), msg)
	}
}

// inlineThreads is the thread count up to which an Online keeps its
// scratch vectors inline: the paper's examples have 2–6 threads.
const inlineThreads = 8

// blocker is a witness that the event at position need of one thread
// cannot extend a cut whose component j is below v: the event's clock
// has v at j. It is a property of the event, not of any cut, so it
// stays exact for every later cut.
type blocker struct {
	need int // candidate position; 0 when nothing is recorded
	j    int
	v    uint64
}

// extends is the consistent-cut test for thread i's candidate event
// (clock clk, position need) against the cut with clock cut and
// materialized counts. On the sequential path a failed test records a
// blocker witness, and later cuts below it are rejected in O(1).
func (o *Online) extends(clk, cut clock.Ref, counts []uint64, i, need int) bool {
	if o.blockers == nil {
		return clock.LeqExcept(clk, cut, i)
	}
	bl := &o.blockers[i]
	if bl.need == need && countAt(counts, bl.j) < bl.v {
		return false
	}
	j := clock.Blocker(clk, cut, i)
	if j < 0 {
		return true
	}
	*bl = blocker{need: need, j: j, v: clk.Get(j)}
	return false
}

// countAt reads component i of a materialized counts vector, which
// omits trailing zeros.
func countAt(counts []uint64, i int) uint64 {
	if i < len(counts) {
		return counts[i]
	}
	return 0
}

// expandLevelWorkers seals the next level on the worker pool.
func (o *Online) expandLevelWorkers() (levelOut, error) {
	return expandLevelParallel(o.prog, o.frontier, o.expandSuccessors, o.workers, o.paths)
}

// expandLevelSequential seals the next level on the calling goroutine,
// lock-free — the path existing callers (Workers == 0) get.
func (o *Online) expandLevelSequential() (levelOut, error) {
	var out levelOut
	next := map[clock.Ref]*pentry{}
	st := newStepper(o.prog, o.paths, false, &out)
	var err error
	for _, ent := range o.frontier {
		o.expandSuccessors(ent, 0, func(thread, index int, counts clock.Ref, m *event.Message) {
			if err != nil {
				return
			}
			tgt := next[counts]
			created := tgt == nil
			if created {
				tgt = &pentry{counts: counts, state: applyMessage(ent.state, *m)}
				next[counts] = tgt
			}
			err = st.edge(ent, tgt, created, thread, index, m)
		})
		if err != nil {
			return out, err
		}
	}
	for _, e := range next {
		out.next = append(out.next, e)
		out.pairWidth += e.keys.n
	}
	sort.Slice(out.next, func(i, j int) bool { return clock.Compare(out.next[i].counts, out.next[j].counts) < 0 })
	out.violated = len(out.viols)
	sortLevelViolations(out.viols)
	out.viols = dedupLevelViolations(out.viols)
	return out, nil
}

func (o *Online) allFinal() bool {
	for _, f := range o.final {
		if !f {
			return false
		}
	}
	return true
}

// violSeen identifies a reported violation by its cut and state.
type violSeen struct {
	counts clock.Ref
	state  string
}

// reportViolation appends a level's violation to the result unless a
// violation at the same cut and state was already reported.
func (o *Online) reportViolation(vr levelViolation) {
	k := violSeen{counts: vr.counts, state: vr.state.Key()}
	if o.reportedViols[k] {
		return
	}
	if o.reportedViols == nil {
		o.reportedViols = map[violSeen]bool{}
	}
	o.reportedViols[k] = true
	cut := lattice.NewCut(vr.counts, vr.state)
	viol := Violation{Cut: cut, State: vr.state, Level: cut.Level()}
	if o.paths {
		run := o.buildRun(vr.path.ids())
		viol.Run = &run
	}
	o.result.Violations = append(o.result.Violations, viol)
}

// onlinePathID encodes an edge (thread, 1-based index) like the
// offline analyzer's pathID.
func onlinePathID(thread, index int) int { return thread<<32 | index }

// buildRun reconstructs a counterexample Run from encoded path ids,
// reading the messages out of the per-thread buffers.
func (o *Online) buildRun(ids []int) lattice.Run {
	run := lattice.Run{States: []logic.State{o.initial}}
	cur := o.initial
	for _, id := range ids {
		th := id >> 32
		idx := id & 0xffffffff
		msg := o.events[th][idx-1]
		cur = applyMessage(cur, msg)
		run.Msgs = append(run.Msgs, msg)
		run.States = append(run.States, cur)
	}
	return run
}
