package clock

import (
	"fmt"
	"sync/atomic"
)

// Repr selects the storage substrate a Table builds its nodes on. The
// handle type (Ref) and every package-level operation are
// representation-agnostic: the digest, Key, Sum and all comparison
// verdicts are pure functions of the clock *value*, so flat- and
// tree-backed nodes interoperate freely — they may even co-exist
// inside one table around an auto promotion.
type Repr uint8

const (
	// ReprAuto starts flat and promotes the table to the tree substrate
	// the first time a value's significant length crosses the table's
	// threshold. The zero value, so untouched callers scale to
	// deep-thread traces without configuration.
	ReprAuto Repr = iota
	// ReprFlat always uses the chunked flat spine: lowest constant
	// factors at the paper's scale (a handful of threads).
	ReprFlat
	// ReprTree always uses the radix trie: O(changed-subtree) Tick and
	// Join on wide vectors, at the cost of one pointer hop per level.
	ReprTree
)

func (r Repr) String() string {
	switch r {
	case ReprFlat:
		return "flat"
	case ReprTree:
		return "tree"
	default:
		return "auto"
	}
}

// ParseRepr parses a -clock-repr flag value: "flat", "tree" or "auto"
// (the empty string means auto).
func ParseRepr(s string) (Repr, error) {
	switch s {
	case "auto", "":
		return ReprAuto, nil
	case "flat":
		return ReprFlat, nil
	case "tree":
		return ReprTree, nil
	}
	return ReprAuto, fmt.Errorf("clock: unknown representation %q (want flat, tree or auto)", s)
}

// DefaultAutoThreshold is the significant length past which an auto
// table promotes to the tree substrate. It is the measured flat/tree
// crossover of Algorithm A tracking on the progs.DeepFanIn workloads
// (BENCH_treeclock.json, make bench-treeclock): at 64 and 256 threads
// flat is cheaper in both bytes and time per event (the trie's path
// copy and pointer hops cost more than the spine copy it saves); 512
// is the smallest measured width at which the tree wins on both, and
// by 1024 it allocates under half of flat's bytes. A value of exactly
// 512 components stays flat: the crossover lies somewhere between the
// measured 256 and 512, and auto never promotes a width at which flat
// was measured to win.
const DefaultAutoThreshold = 512

// defaultRepr is the process-wide representation used by NewTable,
// settable once from the -clock-repr flag before tracers start.
var defaultRepr atomic.Uint32

// DefaultRepr returns the process-wide default representation.
func DefaultRepr() Repr { return Repr(defaultRepr.Load()) }

// SetDefaultRepr sets the representation NewTable uses. Tables created
// before the call keep the substrate they were created with.
func SetDefaultRepr(r Repr) { defaultRepr.Store(uint32(r)) }

// Options configures a Table's substrate.
type Options struct {
	// Repr picks the storage substrate (default ReprAuto).
	Repr Repr
	// AutoThreshold overrides the auto promotion threshold
	// (0 means DefaultAutoThreshold). Ignored unless Repr is ReprAuto.
	AutoThreshold int
}

// representation is the internal substrate interface: one stateless
// implementation per Repr value, responsible for *building* interned
// nodes. Only construction dispatches through it — comparisons are
// package-level functions on Ref with same-substrate fast paths and a
// chunk-generic fallback, so mixed-substrate values always compare
// correctly.
type representation interface {
	kind() Repr
	// intern builds the canonical node for the normalized components
	// comps[:n] (n ≥ 1, comps[n-1] != 0).
	intern(t *Table, comps []uint64, n int) Ref
	// set builds and interns r with component i raised from old to x;
	// agg carries the result's precomputed n, digest and sum.
	set(t *Table, r Ref, i int, old, x uint64, agg node) Ref
	// join builds the pointwise maximum of a and b for the general
	// case: neither side zero, neither dominating; n is the larger
	// significant length.
	join(t *Table, a, b Ref, n int) Ref
}

// flatOps is the chunked flat-spine substrate: a node holds one
// pointer per chunk, and construction copies the spine plus the
// touched chunk, sharing every other chunk with its inputs.
type flatOps struct{}

func (flatOps) kind() Repr { return ReprFlat }

func (flatOps) intern(t *Table, comps []uint64, n int) Ref {
	nc := (n + chunkSize - 1) >> chunkShift
	p, c0 := newFlatNode(nc)
	var digest, sum uint64
	for ci := 0; ci < nc; ci++ {
		c := c0
		if ci > 0 {
			c = &chunk{}
		}
		base := ci << chunkShift
		for k := 0; k < chunkSize && base+k < n; k++ {
			x := comps[base+k]
			c[k] = x
			digest ^= contrib(base+k, x)
			sum += x
		}
		p.flat[ci] = c
	}
	p.n, p.digest, p.sum = n, digest, sum
	return t.intern(p)
}

func (flatOps) set(t *Table, r Ref, i int, old, x uint64, agg node) Ref {
	nc := (agg.n + chunkSize - 1) >> chunkShift
	p, c := newFlatNode(nc)
	for ci := range p.flat {
		p.flat[ci] = r.chunkAt(ci)
	}
	ci := i >> chunkShift
	*c = *p.flat[ci] // copy-on-write: one chunk copied, the rest shared
	c[i&(chunkSize-1)] = x
	p.flat[ci] = c
	p.n, p.digest, p.sum = agg.n, agg.digest, agg.sum
	return t.intern(p)
}

// flatOne and flatCOW co-allocate a flat node with the chunk its
// construction writes (and, for a one-chunk value, with its spine), so
// building a node costs one allocation at the paper's widths and two
// beyond. Chunks stay immutable once the node is interned; a chunk
// another node later shares keeps this allocation alive, which is
// bounded by one node header per chunk.
type flatOne struct {
	node
	spine [1]*chunk
	c     chunk
}

type flatCOW struct {
	node
	c chunk
}

// newFlatNode allocates a flat node with an nc-pointer spine and the
// chunk the caller fills in.
func newFlatNode(nc int) (*node, *chunk) {
	if nc == 1 {
		b := &flatOne{}
		b.flat = b.spine[:]
		return &b.node, &b.c
	}
	b := &flatCOW{}
	b.flat = make([]*chunk, nc)
	return &b.node, &b.c
}

func (flatOps) join(t *Table, a, b Ref, n int) Ref {
	nc := (n + chunkSize - 1) >> chunkShift
	chunks := make([]*chunk, nc)
	digest, sum := a.p.digest, a.p.sum
	for ci := 0; ci < nc; ci++ {
		ca, cb := a.chunkAt(ci), b.chunkAt(ci)
		if ca == cb {
			chunks[ci] = ca
			continue
		}
		fromA, fromB := true, true
		var m chunk
		base := ci << chunkShift
		for k := 0; k < chunkSize; k++ {
			if ca[k] >= cb[k] {
				m[k] = ca[k]
				if ca[k] > cb[k] {
					fromB = false
				}
			} else {
				m[k] = cb[k]
				fromA = false
				digest ^= contrib(base+k, ca[k]) ^ contrib(base+k, cb[k])
				sum += cb[k] - ca[k]
			}
		}
		switch {
		case fromA:
			chunks[ci] = ca
		case fromB:
			chunks[ci] = cb
		default:
			c := m
			chunks[ci] = &c
		}
	}
	return t.intern(&node{flat: chunks, n: n, digest: digest, sum: sum})
}
