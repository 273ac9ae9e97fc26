package clock

import (
	"math/rand"
	"testing"
)

// naiveLeqExcept is the per-component Get loop LeqExcept replaces.
func naiveLeqExcept(a, b Ref, skip int) bool {
	n := a.Len()
	if b.Len() > n {
		n = b.Len()
	}
	for j := 0; j < n; j++ {
		if j != skip && a.Get(j) > b.Get(j) {
			return false
		}
	}
	return true
}

// skipsFor lists the skip positions worth testing for a pair: chunk
// and trie boundaries, both lengths and their neighbours, positions
// past Len, a negative skip, and a random index.
func skipsFor(rng *rand.Rand, a, b Ref) []int {
	out := []int{-1, 0, 7, 8, 63, 64, 65, 511, 512, 4096}
	for _, n := range []int{a.Len(), b.Len()} {
		out = append(out, n-2, n-1, n, n+1)
	}
	if n := a.Len() + 1; n > 0 {
		out = append(out, rng.Intn(n))
	}
	return out
}

// checkLeqExcept compares LeqExcept and Blocker against the naive loop
// for one pair and skip.
func checkLeqExcept(t *testing.T, name string, a, b Ref, skip int) {
	t.Helper()
	want := naiveLeqExcept(a, b, skip)
	if got := LeqExcept(a, b, skip); got != want {
		t.Fatalf("%s: LeqExcept(%v, %v, %d) = %v, want %v", name, a, b, skip, got, want)
	}
	j := Blocker(a, b, skip)
	if want {
		if j != -1 {
			t.Fatalf("%s: Blocker(%v, %v, %d) = %d, want -1", name, a, b, skip, j)
		}
		return
	}
	if j < 0 || j == skip || a.Get(j) <= b.Get(j) {
		t.Fatalf("%s: Blocker(%v, %v, %d) = %d is not a blocking component", name, a, b, skip, j)
	}
}

// TestLeqExceptDifferential checks the consistent-cut primitive and
// its witness against the naive Get loop on flat, tree and mixed
// operands, including mixed pairs minted by one auto table on either
// side of its promotion.
func TestLeqExceptDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ft := NewTableOpts(Options{Repr: ReprFlat})
	tt := NewTableOpts(Options{Repr: ReprTree})
	pairs := 2000
	if testing.Short() {
		pairs = 300
	}
	for p := 0; p < pairs; p++ {
		av, bv := randVec(rng), randVec(rng)
		switch rng.Intn(4) {
		case 0: // b dominates a except possibly at one component
			bv = append(bv[:0:0], av...)
			for k := range bv {
				bv[k] += uint64(rng.Intn(2))
			}
			if len(av) > 0 {
				av = append(av[:0:0], av...)
				av[rng.Intn(len(av))] += uint64(1 + rng.Intn(3))
			}
		case 1: // equal values
			bv = append(bv[:0:0], av...)
		}
		af, bf := ft.Intern(av), ft.Intern(bv)
		at, bt := tt.Intern(av), tt.Intern(bv)
		duos := []struct {
			name string
			a, b Ref
		}{{"flat", af, bf}, {"tree", at, bt}, {"flat-tree", af, bt}, {"tree-flat", at, bf}}
		for _, skip := range skipsFor(rng, af, bf) {
			for _, d := range duos {
				checkLeqExcept(t, d.name, d.a, d.b, skip)
			}
		}
	}
}

// TestLeqExceptEdges pins the cases the random pairs may miss: zero
// operands, a skip that hides the only excess, a skip at or beyond
// Len, and the exact edge of the sum reject.
func TestLeqExceptEdges(t *testing.T) {
	for _, repr := range []Repr{ReprFlat, ReprTree} {
		tb := NewTableOpts(Options{Repr: repr})
		wide := make([]uint64, 300)
		for i := range wide {
			wide[i] = 2
		}
		w := tb.Intern(wide)
		cases := []struct {
			name string
			a, b Ref
			skip int
			want bool
		}{
			{"zero-zero", Ref{}, Ref{}, 0, true},
			{"zero-a", Ref{}, w, 5, true},
			{"zero-b", w, Ref{}, 5, false},
			{"only-skip", tb.Intern([]uint64{0, 0, 0, 9}), Ref{}, 3, true},
			{"skip-at-len", tb.Intern([]uint64{1, 1}), tb.Intern([]uint64{1}), 1, true},
			{"skip-beyond-len", tb.Intern([]uint64{1, 1}), tb.Intern([]uint64{1}), 2, false},
			{"self", w, w, -1, true},
			// Equal sums off skip: the sum test must not reject, the walk
			// must (component 0 exceeds, component 1 lags).
			{"sum-edge-reject", tb.Intern([]uint64{3, 1, 7}), tb.Intern([]uint64{2, 2, 0}), 2, false},
			// Equal sums off skip and pointwise ≤: must accept.
			{"sum-edge-accept", tb.Intern([]uint64{2, 2, 7}), tb.Intern([]uint64{2, 2, 1}), 2, true},
			// One more than b off skip: the O(1) reject.
			{"sum-reject", tb.Intern(append(append([]uint64(nil), wide...), 1)), w, -1, false},
			{"wide-skip-excess", tb.Intern(append(append([]uint64(nil), wide[:64]...), 5)), w, 64, true},
		}
		for _, c := range cases {
			if got := LeqExcept(c.a, c.b, c.skip); got != c.want {
				t.Errorf("%v %s: LeqExcept = %v, want %v", repr, c.name, got, c.want)
			}
			checkLeqExcept(t, repr.String()+" "+c.name, c.a, c.b, c.skip)
		}
	}
}

// TestLeqExceptAutoPromotion runs the differential on the values one
// auto table mints while it promotes: flat values from before the
// threshold meet tree values from after it.
func TestLeqExceptAutoPromotion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	at := NewTableOpts(Options{Repr: ReprAuto, AutoThreshold: 16})
	var refs []Ref
	cur := Ref{}
	for step := 0; step < 400; step++ {
		i := rng.Intn(40)
		if step < 100 {
			i = rng.Intn(16) // stay under the threshold first
		}
		cur = at.Tick(cur, i)
		refs = append(refs, cur)
	}
	if at.Repr() != ReprTree {
		t.Fatal("auto table never promoted")
	}
	for p := 0; p < 3000; p++ {
		a, b := refs[rng.Intn(len(refs))], refs[rng.Intn(len(refs))]
		for _, skip := range skipsFor(rng, a, b) {
			checkLeqExcept(t, "auto", a, b, skip)
		}
	}
}

// TestAppendTo checks the bulk read against Get on both substrates,
// appending after existing contents.
func TestAppendTo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ft := NewTableOpts(Options{Repr: ReprFlat})
	tt := NewTableOpts(Options{Repr: ReprTree})
	for p := 0; p < 500; p++ {
		v := randVec(rng)
		for _, r := range []Ref{ft.Intern(v), tt.Intern(v)} {
			prefix := []uint64{42}
			got := r.AppendTo(prefix)
			if len(got) != 1+r.Len() || got[0] != 42 {
				t.Fatalf("AppendTo kept %d of prefix, length %d, want %d", got[0], len(got), 1+r.Len())
			}
			for j := 0; j < r.Len(); j++ {
				if got[1+j] != r.Get(j) {
					t.Fatalf("AppendTo[%d] = %d, Get = %d", j, got[1+j], r.Get(j))
				}
			}
		}
	}
	if got := (Ref{}).AppendTo(nil); got != nil {
		t.Fatalf("zero Ref appended %v", got)
	}
}
