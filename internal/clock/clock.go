// Package clock provides the immutable, hash-consed clock substrate
// the whole gompax pipeline runs on: a clock value is a Ref — a
// pointer-sized handle to an interned, normalized vector-clock node —
// rather than a mutable []uint64 that every layer defensively clones.
//
// The design follows the observation of tree clocks (Mathur et al.,
// "A Tree Clock Data Structure for Causal Orderings", ASPLOS 2022)
// and optimal vector clocks (Zheng & Garg, 2019) that vector-time
// operations touch few components per event, so the work per event can
// be bounded by the number of *changed* components instead of the
// vector width:
//
//   - Storage is chunked (8 components per chunk) and persistent:
//     Tick and Join build the successor value by copying only the
//     chunks that change and sharing pointers to the rest. A child
//     thread's clock after Spawn shares all chunks with the parent.
//   - Every distinct clock value is interned in a Table: at most one
//     canonical node per value per table, so within one table pointer
//     identity is value identity. Leq/Less/Equal/Compare start with a
//     pointer test and also shortcut over shared chunks.
//   - Each node carries a precomputed 64-bit digest, maintained
//     incrementally (the digest is a XOR of per-component mixes, so a
//     Tick updates it in O(1)). Consumers use the digest for shard
//     selection and hash buckets instead of re-hashing vectors; the
//     digest is a pure function of the value, so differing digests
//     prove inequality even across tables.
//
// Values are normalized: trailing zero components are dropped, and the
// zero Ref is the all-zeros clock. Normalization makes clocks that
// compare Equal structurally identical regardless of how many implicit
// zero components they were built with, mirroring vc.VC's Hash/Key
// semantics.
//
// Refs are safe for concurrent use (they are immutable); Tables are
// internally sharded by digest so concurrent interning from explorer
// workers does not serialize on one lock. The mutable reference
// implementation remains package vc; package clock is differentially
// tested against it (see internal/lattice/latticecheck).
package clock

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"gompax/internal/vc"
)

// chunkShift selects 8 components per chunk: wide enough that the
// paper's examples (2-6 threads) fit in one chunk, narrow enough that
// copy-on-write on wide benchmark lattices shares most of the vector.
const chunkShift = 3

const chunkSize = 1 << chunkShift

// chunk is one fixed-size block of clock components. Chunks are
// immutable after construction, so distinct nodes may alias them.
type chunk [chunkSize]uint64

// zeroChunk is shared by every node that spans a gap of all-zero
// components. Safe to alias because chunks are never mutated.
var zeroChunk = &chunk{}

// node is one interned clock value. n is the significant length (the
// last component is nonzero) and components beyond n are zero. Exactly
// one substrate backs the value: flat (a spine of ceil(n/chunkSize)
// chunk pointers) or tree (a radix trie of height treeHeight(n) over
// the same chunks, see tree.go). digest and sum are substrate-
// independent functions of the value, so mixed-substrate nodes share
// buckets, comparisons and fast paths. next chains the nodes of one
// table that share a digest (written once, under the shard lock,
// before the node is published).
type node struct {
	flat   []*chunk
	tree   *tnode
	next   *node
	n      int
	digest uint64
	sum    uint64
}

func (p *node) height() int { return treeHeight(p.n) }

// chunkAt returns chunk ci of the value on either substrate, the
// shared zero chunk beyond its storage.
func (p *node) chunkAt(ci int) *chunk {
	if p.flat != nil {
		if ci >= len(p.flat) {
			return zeroChunk
		}
		return p.flat[ci]
	}
	if ci<<chunkShift >= p.n {
		return zeroChunk
	}
	return treeGetChunk(p.tree, ci, p.height())
}

// Ref is an immutable clock value: a handle to an interned node. The
// zero Ref is the all-zeros clock. Refs are comparable; within one
// Table, ref equality (pointer equality) coincides with value
// equality, so Refs from a single table may be used as map keys.
// Across tables, == may report false for equal values; use Equal.
type Ref struct {
	p *node
}

// mix hashes one (index, value) pair with a splitmix64-style finalizer.
// The node digest is the XOR of mix over all nonzero components, which
// makes it order-independent and incrementally updatable: changing one
// component XORs out the old contribution and XORs in the new one.
func mix(i int, x uint64) uint64 {
	z := uint64(i+1)*0x9e3779b97f4a7c15 + x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// contrib is a component's digest contribution; zero components
// contribute nothing, so normalization cannot change the digest.
func contrib(i int, x uint64) uint64 {
	if x == 0 {
		return 0
	}
	return mix(i, x)
}

// Len returns the number of significant components. Components at or
// beyond Len are implicitly zero; the last significant one is nonzero.
func (r Ref) Len() int {
	if r.p == nil {
		return 0
	}
	return r.p.n
}

// Get returns V[i], treating components beyond Len as 0.
func (r Ref) Get(i int) uint64 {
	if r.p == nil || i < 0 || i >= r.p.n {
		return 0
	}
	return r.p.chunkAt(i >> chunkShift)[i&(chunkSize-1)]
}

// IsZero reports whether the clock is all zeros.
func (r Ref) IsZero() bool { return r.p == nil }

// Digest returns the precomputed 64-bit digest. It is a pure function
// of the clock value: equal values have equal digests (even across
// tables), and differing digests prove differing values. The zero
// clock's digest is 0.
func (r Ref) Digest() uint64 {
	if r.p == nil {
		return 0
	}
	return r.p.digest
}

// Sum returns the total number of events counted by the clock. For a
// clock attached to a consistent cut this is the cut's lattice level.
// Precomputed, so it is O(1).
func (r Ref) Sum() uint64 {
	if r.p == nil {
		return 0
	}
	return r.p.sum
}

// chunkAt returns the ci'th chunk, or the shared zero chunk beyond the
// clock's storage.
func (r Ref) chunkAt(ci int) *chunk {
	if r.p == nil {
		return zeroChunk
	}
	return r.p.chunkAt(ci)
}

// AppendTo appends the Len significant components to dst in one
// traversal of either substrate and returns the extended slice. It is
// the bulk counterpart of Get: a caller that needs every component
// pays one walk, not one root-to-leaf descent per component.
func (r Ref) AppendTo(dst []uint64) []uint64 {
	if r.p == nil {
		return dst
	}
	start, n := len(dst), r.p.n
	if r.p.flat != nil {
		for ci, c := range r.p.flat {
			dst = append(dst, c[:min(chunkSize, n-ci<<chunkShift)]...)
		}
		return dst
	}
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	clear(out) // treeFill skips nil (all-zero) subtrees
	treeFill(out, r.p.tree, 0, r.p.height())
	return dst
}

// VC materializes the clock as a mutable vc.VC of length Len. The
// result is fresh and safe to mutate.
func (r Ref) VC() vc.VC {
	if r.p == nil {
		return nil
	}
	return r.AppendTo(make(vc.VC, 0, r.p.n))
}

// Key returns the compact normalized string key, identical to
// vc.VC.Key() of the same value. Unlike Digest it is collision-free;
// unlike the Ref itself it is stable across tables and processes.
func (r Ref) Key() string {
	n := r.Len()
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r.Get(i))
	}
	return b.String()
}

// String renders the clock in the paper's tuple notation, e.g.
// "(1,2)". Trailing zeros are normalized away, so a clock built as
// (1,0) renders "(1)".
func (r Ref) String() string {
	var b strings.Builder
	b.WriteByte('(')
	n := r.Len()
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r.Get(i))
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether a and b denote the same clock value. Within
// one table this is the pointer test; across tables it falls back to
// a digest comparison (differing digests prove inequality) and then a
// sharing-aware component comparison on whichever substrates back the
// two values.
func Equal(a, b Ref) bool {
	if a.p == b.p {
		return true
	}
	if a.p == nil || b.p == nil {
		return false // normalized: a non-nil node has n >= 1
	}
	if a.p.digest != b.p.digest || a.p.n != b.p.n || a.p.sum != b.p.sum {
		return false
	}
	return nodesEqual(a.p, b.p)
}

// Leq reports whether a ≤ b pointwise (missing components are zero).
func Leq(a, b Ref) bool {
	if a.p == b.p || a.p == nil {
		return true
	}
	if b.p == nil {
		return false
	}
	if a.p.n > b.p.n {
		return false // a's last significant component exceeds b's zero
	}
	if a.p.sum > b.p.sum {
		return false // pointwise ≤ implies sum ≤
	}
	switch {
	case a.p.flat != nil && b.p.flat != nil:
		for ci, ca := range a.p.flat {
			cb := b.p.flat[ci]
			if ca == cb {
				continue
			}
			for k := 0; k < chunkSize; k++ {
				if ca[k] > cb[k] {
					return false
				}
			}
		}
		return true
	case a.p.tree != nil && b.p.tree != nil:
		return treeLeqRoots(a.p.tree, a.p.height(), b.p.tree, b.p.height())
	default: // mixed substrates: generic chunk walk
		nc := (a.p.n + chunkSize - 1) >> chunkShift
		for ci := 0; ci < nc; ci++ {
			ca, cb := a.p.chunkAt(ci), b.p.chunkAt(ci)
			if ca == cb {
				continue
			}
			for k := 0; k < chunkSize; k++ {
				if ca[k] > cb[k] {
					return false
				}
			}
		}
		return true
	}
}

// Less reports whether a < b, i.e. a ≤ b and a ≠ b.
func Less(a, b Ref) bool {
	if a.p == b.p {
		return false
	}
	return Leq(a, b) && !Equal(a, b)
}

// Concurrent reports whether neither a ≤ b nor b ≤ a holds.
func Concurrent(a, b Ref) bool {
	if a.p == b.p {
		return false
	}
	return !Leq(a, b) && !Leq(b, a)
}

// Precedes implements the causality test of Theorem 3: for two
// distinct messages <e, i, V> and <e', i', V'> emitted by Algorithm A,
// e ⊲ e' iff V[i] ≤ V'[i], where i is the thread of the *earlier*
// candidate message.
func Precedes(a Ref, i int, b Ref) bool {
	return a.Get(i) <= b.Get(i)
}

// LeqExcept is the consistent-cut test: it reports whether a[j] ≤ b[j]
// for every component j ≠ skip. With a the clock of thread skip's next
// event and b a cut's per-thread counts, it says whether every causal
// predecessor of the event on the other threads is inside the cut —
// whether the event consistently extends the cut. A skip outside
// [0, Len) compares every component.
//
// The precomputed sums give an O(1) reject (pointwise ≤ off skip
// implies a.sum−a[skip] ≤ b.sum−b[skip]); otherwise the test walks the
// chunks on either substrate, skipping shared chunks and subtrees.
func LeqExcept(a, b Ref, skip int) bool {
	if a.p == b.p || a.p == nil {
		return true
	}
	as, bs := a.Get(skip), b.Get(skip)
	if a.p.sum-as > b.Sum()-bs {
		return false
	}
	return blocker(a, b, skip, as, bs) < 0
}

// Blocker is LeqExcept with a witness: it returns one component j ≠
// skip with a[j] > b[j], or -1 when LeqExcept(a, b, skip) holds. The
// witness (j, a[j]) is a property of a alone, so any b' with b'[j] <
// a[j] fails the same test — an explorer can reject later cuts against
// the same event in O(1) without walking the clocks again.
func Blocker(a, b Ref, skip int) int {
	if a.p == b.p || a.p == nil {
		return -1
	}
	return blocker(a, b, skip, a.Get(skip), b.Get(skip))
}

// blocker implements Blocker for a nonzero a; as and bs are a[skip]
// and b[skip].
func blocker(a, b Ref, skip int, as, bs uint64) int {
	n := a.p.n
	if n > b.Len() && n-1 != skip {
		return n - 1 // a's last component is nonzero, b's is zero
	}
	if a.p.tree != nil && b.p != nil && b.p.tree != nil {
		return treeBlockerRoots(a.p.tree, a.p.height(), b.p.tree, b.p.height(), skip, as, bs)
	}
	nc := (n + chunkSize - 1) >> chunkShift
	for ci := 0; ci < nc; ci++ {
		ca, cb := a.p.chunkAt(ci), b.chunkAt(ci)
		if ca == cb {
			continue
		}
		base := ci << chunkShift
		for k := 0; k < chunkSize; k++ {
			if ca[k] > cb[k] && base+k != skip {
				return base + k
			}
		}
	}
	return -1
}

// Compare orders clocks component-lexicographically: the first index
// where the values differ decides. This is a total order consistent
// with Equal (Compare == 0 iff Equal), used for canonical violation
// ordering across explorer modes.
func Compare(a, b Ref) int {
	if a.p == b.p {
		return 0
	}
	if a.p != nil && b.p != nil && a.p.tree != nil && b.p.tree != nil {
		if ha, hb := a.p.height(), b.p.height(); ha == hb {
			return treeCompare(a.p.tree, b.p.tree, ha)
		}
	}
	n := a.Len()
	if bl := b.Len(); bl > n {
		n = bl
	}
	nc := (n + chunkSize - 1) >> chunkShift
	for ci := 0; ci < nc; ci++ {
		ca, cb := a.chunkAt(ci), b.chunkAt(ci)
		if ca == cb {
			continue
		}
		for k := 0; k < chunkSize; k++ {
			if ca[k] != cb[k] {
				if ca[k] < cb[k] {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}

// Diff calls f(i, delta) for every component where cur exceeds prev,
// in ascending index order, skipping shared chunks wholesale. It
// reports false (possibly after some calls) if prev has a component
// exceeding cur's — i.e. cur is not an update of prev — in which case
// the caller should fall back to treating cur as a fresh clock. This
// is the wire delta encoder's workhorse: per-thread message clocks are
// pointwise monotone, so Diff normally succeeds and visits only the
// components the event actually advanced.
func Diff(prev, cur Ref, f func(i int, delta uint64)) bool {
	if prev.p == cur.p {
		return true
	}
	if prev.Len() > cur.Len() {
		return false
	}
	if cur.p != nil && cur.p.tree != nil && (prev.p == nil || prev.p.tree != nil) {
		var pt *tnode
		hp := 0
		if prev.p != nil {
			pt, hp = prev.p.tree, prev.p.height()
		}
		return treeDiffRoots(pt, hp, cur.p.tree, cur.p.height(), 0, f)
	}
	nc := (cur.Len() + chunkSize - 1) >> chunkShift
	for ci := 0; ci < nc; ci++ {
		cp, cc := prev.chunkAt(ci), cur.chunkAt(ci)
		if cp == cc {
			continue
		}
		base := ci << chunkShift
		for k := 0; k < chunkSize; k++ {
			switch {
			case cc[k] > cp[k]:
				f(base+k, cc[k]-cp[k])
			case cc[k] < cp[k]:
				return false
			}
		}
	}
	return true
}

// tableShards bounds lock contention when explorer workers intern
// concurrently; shard choice is by digest so it needs no coordination.
const tableShards = 32

type tableShard struct {
	mu      sync.Mutex
	buckets map[uint64]*node // digest -> chain of interned nodes (via next)
	_       [32]byte         // reduce false sharing between shards
}

// Table is an interning table: at most one canonical node per distinct
// clock value. Tables are typically scoped to one tracer or one
// analysis session, so interned values are reclaimed when the session
// ends and Refs from a single table can serve directly as map keys.
// All methods are safe for concurrent use.
type Table struct {
	shards    [tableShards]tableShard
	size      atomic.Int64
	opts      Options
	threshold int
	promoted  atomic.Bool
}

// NewTable returns an empty interning table on the process default
// representation (see SetDefaultRepr; auto unless a flag changed it).
func NewTable() *Table {
	return NewTableOpts(Options{Repr: DefaultRepr()})
}

// NewTableOpts returns an empty interning table on the given
// substrate.
func NewTableOpts(o Options) *Table {
	t := &Table{opts: o, threshold: o.AutoThreshold}
	if t.threshold <= 0 {
		t.threshold = DefaultAutoThreshold
	}
	for i := range t.shards {
		t.shards[i].buckets = make(map[uint64]*node)
	}
	tableCreated(t)
	return t
}

// Size returns the number of distinct clock values interned so far.
func (t *Table) Size() int { return int(t.size.Load()) }

// Repr returns the substrate new values are currently built on: the
// configured representation, resolved for auto tables to flat or tree
// depending on whether the promotion threshold has been crossed.
func (t *Table) Repr() Repr {
	switch {
	case t.opts.Repr != ReprAuto:
		return t.opts.Repr
	case t.promoted.Load():
		return ReprTree
	default:
		return ReprFlat
	}
}

// ops picks the representation that builds a value of significant
// length n, promoting an auto table — one way, for the rest of its
// life — the first time n crosses the threshold. Values interned
// before the promotion stay flat; mixed operands go through the
// generic comparison paths and are converted lazily (and cheaply,
// since pre-promotion values are threshold-bounded) when a tree
// operation consumes them.
func (t *Table) ops(n int) representation {
	switch t.opts.Repr {
	case ReprFlat:
		return flatOps{}
	case ReprTree:
		return treeOps{}
	}
	if t.promoted.Load() {
		return treeOps{}
	}
	if n > t.threshold {
		if t.promoted.CompareAndSwap(false, true) {
			tablePromoted()
		}
		return treeOps{}
	}
	return flatOps{}
}

// nodesEqual compares two normalized nodes by value, shared storage
// shortcut by pointer. Digest equality is assumed (bucket invariant).
func nodesEqual(x, y *node) bool {
	if x.n != y.n || x.sum != y.sum {
		return false
	}
	switch {
	case x.flat != nil && y.flat != nil:
		for ci, cx := range x.flat {
			cy := y.flat[ci]
			if cx == cy {
				continue
			}
			if *cx != *cy {
				return false
			}
		}
		return true
	case x.tree != nil && y.tree != nil:
		return treeEqual(x.tree, y.tree, x.height())
	default: // mixed substrates: generic chunk walk
		nc := (x.n + chunkSize - 1) >> chunkShift
		for ci := 0; ci < nc; ci++ {
			cx, cy := x.chunkAt(ci), y.chunkAt(ci)
			if cx == cy {
				continue
			}
			if *cx != *cy {
				return false
			}
		}
		return true
	}
}

// intern returns the canonical Ref for the candidate node, inserting
// it if the value is new. The candidate must be normalized (n >= 1,
// last component nonzero, zeros beyond n in the last chunk).
func (t *Table) intern(cand *node) Ref {
	s := &t.shards[cand.digest%tableShards]
	s.mu.Lock()
	head := s.buckets[cand.digest]
	for ex := head; ex != nil; ex = ex.next {
		if nodesEqual(ex, cand) {
			s.mu.Unlock()
			mHits.Inc()
			return Ref{ex}
		}
	}
	cand.next = head
	s.buckets[cand.digest] = cand
	s.mu.Unlock()
	t.size.Add(1)
	nodeInterned(cand)
	return Ref{cand}
}

// Intern returns the canonical Ref for the given components (trailing
// zeros are normalized away; the slice is copied, not retained).
func (t *Table) Intern(comps []uint64) Ref {
	n := len(comps)
	for n > 0 && comps[n-1] == 0 {
		n--
	}
	if n == 0 {
		return Ref{}
	}
	return t.ops(n).intern(t, comps, n)
}

// set returns the canonical Ref for r with component i set to x > old,
// sharing all of r's storage except the path to the chunk containing
// i. Both Tick and the explorers' cut advancement reduce to this.
//
// The successor's digest and sum are O(1) to derive from r's, so set
// probes the table first: it compares each node in the successor's
// bucket against "r with V[i] = x" in place, and returns the existing
// Ref on a hit without building anything. Only a miss builds (and then
// interns) a new node. Most explorer edges reach a cut some other edge
// already minted, so this is what makes a duplicate edge free.
func (t *Table) set(r Ref, i int, x uint64) Ref {
	old := r.Get(i)
	if x == old {
		return r
	}
	n := r.Len()
	if x != 0 && i+1 > n {
		n = i + 1
	}
	// x == 0 would require re-normalizing trailing zeros; no caller
	// decreases components, and Tick/Join only raise them.
	var digest, sum uint64
	if r.p != nil {
		digest, sum = r.p.digest, r.p.sum
	}
	digest ^= contrib(i, old) ^ contrib(i, x)
	sum += x - old
	if ex := t.probeSet(r, i, x, n, digest, sum); ex != nil {
		return Ref{ex}
	}
	return t.ops(n).set(t, r, i, old, x, node{n: n, digest: digest, sum: sum})
}

// probeSet returns the interned node equal to r with component i set
// to x, or nil. n, digest and sum are that value's precomputed
// aggregates. A hit pays what intern's nodesEqual would pay against a
// freshly built candidate, and allocates nothing.
func (t *Table) probeSet(r Ref, i int, x uint64, n int, digest, sum uint64) *node {
	s := &t.shards[digest%tableShards]
	s.mu.Lock()
	for ex := s.buckets[digest]; ex != nil; ex = ex.next {
		if ex.n == n && ex.sum == sum && equalSet(ex, r, i, x) {
			s.mu.Unlock()
			mHits.Inc()
			return ex
		}
	}
	s.mu.Unlock()
	return nil
}

// equalSet reports whether node p (of the same significant length as
// the successor) holds r's value with component i set to x. Shared
// chunks and subtrees are skipped by pointer, exactly as nodesEqual
// skips them between a node and a candidate built from r.
func equalSet(p *node, r Ref, i int, x uint64) bool {
	ci := i >> chunkShift
	if p.tree != nil && (r.p == nil || r.p.tree != nil) {
		var rt *tnode
		rh := 0
		if r.p != nil {
			rt, rh = r.p.tree, r.p.height()
		}
		return treeEqualSet(p.tree, p.height(), rt, rh, ci, i, x)
	}
	// Flat, or mixed substrates around an auto promotion: chunk walk.
	nc := (p.n + chunkSize - 1) >> chunkShift
	for cj := 0; cj < nc; cj++ {
		cp, cr := p.chunkAt(cj), r.chunkAt(cj)
		if cj == ci {
			if !chunkEqualSet(cp, cr, i, x) {
				return false
			}
		} else if cp != cr && *cp != *cr {
			return false
		}
	}
	return true
}

// chunkEqualSet reports whether chunk c equals chunk base with
// component i (which lives in it) set to x.
func chunkEqualSet(c, base *chunk, i int, x uint64) bool {
	k := i & (chunkSize - 1)
	if c[k] != x {
		return false
	}
	for j := range c {
		if j != k && c[j] != base[j] {
			return false
		}
	}
	return true
}

// Tick returns the clock with component i incremented by one: step 1
// of Algorithm A, and the lattice explorer's cut advancement. O(1)
// amortized: one chunk copy, an incremental digest update, and an
// intern lookup.
func (t *Table) Tick(r Ref, i int) Ref {
	return t.set(r, i, r.Get(i)+1)
}

// Join returns the canonical Ref for the pointwise maximum max{a, b}.
// When one side dominates, the dominating Ref itself is returned with
// no allocation — this makes Algorithm A's write step (V_w = V_a =
// V_i) and Spawn pure structure sharing. In the general case the
// result shares every chunk it can with a or b, and the digest is
// updated incrementally from a's.
func (t *Table) Join(a, b Ref) Ref {
	if a.p == b.p || b.p == nil || Leq(b, a) {
		return a
	}
	if a.p == nil || Leq(a, b) {
		return b
	}
	n := a.Len()
	if bl := b.Len(); bl > n {
		n = bl
	}
	return t.ops(n).join(t, a, b, n)
}

// global is the process-wide convenience table used by tests, tools
// and trace loading; pipeline components scope their own tables.
var global = NewTable()

// Global returns the process-wide interning table.
func Global() *Table { return global }

// Of interns the given components into the global table.
func Of(comps ...uint64) Ref { return global.Intern(comps) }

// FromVC interns a vc.VC into the global table.
func FromVC(v vc.VC) Ref { return global.Intern(v) }
