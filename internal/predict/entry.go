package predict

import (
	"sync"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
	"gompax/internal/monitor"
)

// This file holds the per-cut bookkeeping the explorers share: the
// frontier entry, its monitor-key set, its atom cache and the
// parent-linked representative paths. Together they let a level
// materialize once per *new* cut: an edge into a cut that another edge
// already minted reuses that cut's clock, state and atom values, and
// allocates only if it improves a representative path (DESIGN.md §8,
// "one materialization per new cut").

// pathNode is the last step of a representative path: the encoded edge
// (see onlinePathID) and the path to the edge's source cut. Paths share
// their prefixes, so extending one is O(1); a path is flattened into
// ids only when a violation is reported. The root's path is nil, and
// every path into a cut has the cut's level as its length.
type pathNode struct {
	parent *pathNode
	id     int
}

// extendPath returns path+id, or nil when paths are not tracked.
func extendPath(track bool, path *pathNode, id int) *pathNode {
	if !track {
		return nil
	}
	return &pathNode{parent: path, id: id}
}

// ids flattens the path root-first.
func (p *pathNode) ids() []int {
	n := 0
	for q := p; q != nil; q = q.parent {
		n++
	}
	out := make([]int, n)
	for q := p; q != nil; q = q.parent {
		n--
		out[n] = q.id
	}
	return out
}

// comparePaths orders two paths of equal length lexicographically. It
// walks both back in lockstep until they share a node (a common
// prefix); the last difference seen is the first in path order.
func comparePaths(a, b *pathNode) int {
	c := 0
	for ; a != b && a != nil && b != nil; a, b = a.parent, b.parent {
		switch {
		case a.id < b.id:
			c = -1
		case a.id > b.id:
			c = 1
		}
	}
	return c
}

// lessExtended reports whether path+id orders before q, a path of the
// same length, without building path+id.
func lessExtended(path *pathNode, id int, q *pathNode) bool {
	if c := comparePaths(path, q.parent); c != 0 {
		return c < 0
	}
	return id < q.id
}

// monKey is one monitor state reachable at a cut, with its
// representative path (nil unless counterexamples are tracked).
type monKey struct {
	key  uint64
	path *pathNode
}

// keySet is a cut's set of reachable monitor states, sorted by key.
// Cuts rarely carry more than two, so those live inline; past that the
// whole set moves to spill. Iteration order is the key order, though
// nothing observable depends on it: the merge below is
// order-independent and violations are sorted canonically per level.
type keySet struct {
	inline [2]monKey
	n      int
	spill  []monKey // all keys once n > len(inline)
}

// all returns the keys in ascending order.
func (ks *keySet) all() []monKey {
	if ks.spill != nil {
		return ks.spill
	}
	return ks.inline[:ks.n]
}

// upsert returns key's slot, inserting it with a nil path if absent,
// and whether it was already present. The slot is valid until the next
// insertion.
func (ks *keySet) upsert(key uint64) (*monKey, bool) {
	s := ks.all()
	lo, hi := 0, len(s)
	for lo < hi {
		if mid := (lo + hi) / 2; s[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].key == key {
		return &s[lo], true
	}
	switch {
	case ks.spill != nil:
		ks.spill = append(ks.spill, monKey{})
		s = ks.spill
	case ks.n < len(ks.inline):
		s = ks.inline[:ks.n+1]
	default:
		ks.spill = append(make([]monKey, 0, 2*len(ks.inline)), ks.inline[:]...)
		ks.spill = append(ks.spill, monKey{})
		s = ks.spill
	}
	ks.n++
	copy(s[lo+1:], s[lo:len(s)-1])
	s[lo] = monKey{key: key}
	return &s[lo], false
}

// merge records that monitor state key is reachable along path+id.
// Of all paths reaching the same (cut, key) pair it keeps the
// lexicographically least, so the representative is the same whatever
// order edges arrive in; a new node is allocated only when the pair is
// new or the path wins.
func (ks *keySet) merge(key uint64, path *pathNode, id int, track bool) {
	slot, seen := ks.upsert(key)
	switch {
	case !track:
	case !seen:
		slot.path = &pathNode{parent: path, id: id}
	case lessExtended(path, id, slot.path):
		slot.path = &pathNode{parent: path, id: id}
	}
}

// inlineAtoms is the atom count up to which a cut's atom values live
// inside its entry.
const inlineAtoms = 8

// pentry is one frontier cut: its per-thread event counts, the global
// state there, the monitor states reachable at it (each with one
// representative path), and the program's atom values at the state,
// evaluated on the first step into the cut. The mutex serializes
// concurrent merges and the atom fill by parallel workers; the
// sequential paths never lock it.
type pentry struct {
	counts   clock.Ref
	state    logic.State
	mu       sync.Mutex
	keys     keySet
	atoms    []bool // nil until evaluated
	atomsArr [inlineAtoms]bool
}

// atomVals returns the program's atom values at the entry's state,
// evaluating them on the first call.
func (e *pentry) atomVals(prog *monitor.Program) ([]bool, error) {
	if e.atoms == nil {
		vals := e.atomsArr[:0]
		if n := prog.NumAtoms(); n <= len(e.atomsArr) {
			vals = e.atomsArr[:n]
		} else {
			vals = make([]bool, n)
		}
		if err := prog.EvalAtoms(&e.state, vals); err != nil {
			return nil, err
		}
		e.atoms = vals
	}
	return e.atoms, nil
}

// stateMatches reports whether s is applyMessage(parent, m), without
// building it.
func stateMatches(s, parent logic.State, m *event.Message) bool {
	if m.Event.Kind.IsChannel() {
		return s.Equal(parent)
	}
	return s.EqualsWith(parent, m.Event.Var, m.Event.Value)
}

// stepper steps monitor states across lattice edges for one goroutine
// of a level expansion, accumulating into out. shared marks the worker
// pool, where successor entries are reached by several goroutines and
// must be locked.
type stepper struct {
	prog   *monitor.Program
	mon    *monitor.Monitor
	paths  bool
	shared bool
	own    []bool // atom scratch for an edge whose state is not its cut's
	out    *levelOut
}

func newStepper(prog *monitor.Program, paths, shared bool, out *levelOut) *stepper {
	return &stepper{prog: prog, mon: prog.NewMonitor(), paths: paths, shared: shared, out: out}
}

// edge steps every monitor state of the parent ent across one edge —
// the index'th event m of thread — into the successor tgt, which this
// edge minted when created is set. Violating pairs are collected (and
// not propagated); the others merge into tgt's key set.
func (s *stepper) edge(ent, tgt *pentry, created bool, thread, index int, m *event.Message) error {
	s.out.edges++
	if created {
		s.out.newCuts++
	}
	// The parent's key set was sealed at the previous barrier, so it is
	// read without ent.mu.
	keys := ent.keys.all()
	if len(keys) == 0 {
		return nil
	}
	state, vals, err := s.edgeAtoms(ent, tgt, created, m)
	if err != nil {
		return err
	}
	id := onlinePathID(thread, index)
	for _, mk := range keys {
		s.mon.Restore(mk.key)
		verdict := s.mon.StepAtoms(vals)
		s.out.pairs++
		if verdict == monitor.Violated {
			s.out.viols = append(s.out.viols, levelViolation{
				counts: tgt.counts, state: state, mkey: mk.key,
				path: extendPath(s.paths, mk.path, id),
			})
			continue // violated monitor states are not propagated
		}
		if s.shared {
			tgt.mu.Lock()
		}
		tgt.keys.merge(s.mon.Key(), mk.path, id, s.paths)
		if s.shared {
			tgt.mu.Unlock()
		}
	}
	return nil
}

// edgeAtoms returns the state the edge steps into and the atom values
// there. Algorithm A's clocks order every two writes of one variable,
// so every edge into a cut computes the same state and the cut's
// cached values serve them all. Clocks that claim two writes of one
// variable are concurrent break that; the check catches it and the
// edge steps on its own state, as the per-edge explorers always did.
func (s *stepper) edgeAtoms(ent, tgt *pentry, created bool, m *event.Message) (logic.State, []bool, error) {
	if created || stateMatches(tgt.state, ent.state, m) {
		if s.shared {
			tgt.mu.Lock()
			defer tgt.mu.Unlock()
		}
		vals, err := tgt.atomVals(s.prog)
		return tgt.state, vals, err
	}
	state := applyMessage(ent.state, *m)
	if s.own == nil {
		s.own = make([]bool, s.prog.NumAtoms())
	}
	return state, s.own, s.prog.EvalAtoms(state, s.own)
}
