package clock

import (
	"math/rand"
	"testing"
)

// withSet returns a copy of v with component i set to x, extended with
// zeros as needed: the value Table.set(Intern(v), i, x) must denote.
func withSet(v []uint64, i int, x uint64) []uint64 {
	w := append([]uint64(nil), v...)
	for len(w) <= i {
		w = append(w, 0)
	}
	w[i] = x
	return w
}

// probeCase draws an operand vector, a component to raise and its new
// value (strictly above the old one).
func probeCase(rng *rand.Rand) (v []uint64, i int, x uint64) {
	v = randVec(rng)
	i = rng.Intn(len(v) + 20)
	old := uint64(0)
	if i < len(v) {
		old = v[i]
	}
	return v, i, old + 1 + uint64(rng.Intn(3))
}

// TestProbeSetDifferential checks probe-first set against the build
// path on the flat and tree substrates, on an auto table around its
// promotion (flat operands whose successor is tree-backed), and on
// operands from a table of the other substrate. When the successor is
// already interned, set must return that very node and intern nothing;
// when it is not, set must build exactly one node equal to the oracle,
// which a later Intern of the same value finds.
func TestProbeSetDifferential(t *testing.T) {
	tables := []struct {
		name string
		opts Options
		from Options // substrate the operand is interned on
	}{
		{"flat", Options{Repr: ReprFlat}, Options{Repr: ReprFlat}},
		{"tree", Options{Repr: ReprTree}, Options{Repr: ReprTree}},
		{"auto", Options{AutoThreshold: 16}, Options{AutoThreshold: 16}},
		{"flat-from-tree", Options{Repr: ReprFlat}, Options{Repr: ReprTree}},
		{"tree-from-flat", Options{Repr: ReprTree}, Options{Repr: ReprFlat}},
	}
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	oracle := NewTableOpts(Options{Repr: ReprFlat})
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for it := 0; it < iters; it++ {
				v, i, x := probeCase(rng)
				w := withSet(v, i, x)
				want := oracle.Intern(w)

				// Hit: the successor is already interned.
				tab := NewTableOpts(tc.opts)
				r := tab.Intern(v)
				if tc.from != tc.opts {
					r = NewTableOpts(tc.from).Intern(v)
				}
				pre := tab.Intern(w)
				size := tab.Size()
				if got := tab.set(r, i, x); got.p != pre.p {
					t.Fatalf("iter %d: hit returned %v (node %p), want the interned node %p", it, got, got.p, pre.p)
				}
				if tab.Size() != size {
					t.Fatalf("iter %d: hit interned %d node(s)", it, tab.Size()-size)
				}

				// Miss: the successor is new to the table.
				tab = NewTableOpts(tc.opts)
				r = tab.Intern(v)
				if tc.from != tc.opts {
					r = NewTableOpts(tc.from).Intern(v)
				}
				size = tab.Size()
				got := tab.set(r, i, x)
				if !Equal(got, want) || got.Digest() != want.Digest() || got.Sum() != want.Sum() {
					t.Fatalf("iter %d: miss built %v, want %v", it, got, want)
				}
				if tab.Size() != size+1 {
					t.Fatalf("iter %d: miss interned %d nodes, want 1", it, tab.Size()-size)
				}
				if again := tab.Intern(w); again.p != got.p {
					t.Fatalf("iter %d: Intern after a miss found a different node", it)
				}
			}
		})
	}
}

// TestEqualSetNearMisses drives the in-place comparison with candidates
// that differ from the successor in one component but share its length
// — the cases a digest collision would hand it — and checks it against
// value equality of the built successor.
func TestEqualSetNearMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	oracle := NewTableOpts(Options{Repr: ReprFlat})
	for _, o := range []Options{{Repr: ReprFlat}, {Repr: ReprTree}, {AutoThreshold: 16}} {
		tab := NewTableOpts(o)
		for it := 0; it < 3000; it++ {
			v, i, x := probeCase(rng)
			w := withSet(v, i, x)
			cand := append([]uint64(nil), w...)
			if rng.Intn(4) != 0 {
				j := rng.Intn(len(cand))
				if j == len(cand)-1 || rng.Intn(2) == 0 {
					cand[j]++ // keeps the length: the last component stays nonzero
				} else {
					cand[j] = 0
				}
			}
			p := tab.Intern(cand)
			r := tab.Intern(v)
			if p.Len() != len(w) || p.p == nil {
				continue // equalSet is only asked about same-length nodes
			}
			got := equalSet(p.p, r, i, x)
			if want := Equal(oracle.Intern(cand), oracle.Intern(w)); got != want {
				t.Fatalf("%v iter %d: equalSet = %v, want %v (cand %v, r %v, i %d, x %d)", o, it, got, want, p, r, i, x)
			}
		}
	}
}

// TestTickHitAllocsNothing: a Tick whose successor is already interned
// must not allocate, on either substrate.
func TestTickHitAllocsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		width int
	}{
		{"flat", Options{Repr: ReprFlat}, 4},
		{"flat-wide", Options{Repr: ReprFlat}, 40},
		{"tree", Options{Repr: ReprTree}, 4},
		{"tree-wide", Options{Repr: ReprTree}, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewTableOpts(tc.opts)
			v := make([]uint64, tc.width)
			for k := range v {
				v[k] = uint64(k + 1)
			}
			r := tab.Intern(v)
			i := tc.width / 2
			want := tab.Tick(r, i)
			size := tab.Size()
			allocs := testing.AllocsPerRun(100, func() {
				if got := tab.Tick(r, i); got.p != want.p {
					t.Fatal("hitting Tick returned a different node")
				}
			})
			if allocs != 0 {
				t.Fatalf("hitting Tick allocated %v times per run, want 0", allocs)
			}
			if tab.Size() != size {
				t.Fatalf("hitting Tick interned %d node(s)", tab.Size()-size)
			}
		})
	}
}
