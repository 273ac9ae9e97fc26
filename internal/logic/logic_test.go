package logic

import (
	"math/rand"
	"strings"
	"testing"
)

func st(pairs ...interface{}) State {
	m := map[string]int64{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = int64(pairs[i+1].(int))
	}
	return StateFromMap(m)
}

func TestStateBasics(t *testing.T) {
	s := st("x", 1, "y", 2)
	if v, ok := s.Lookup("x"); !ok || v != 1 {
		t.Fatalf("Lookup(x) = %d,%v", v, ok)
	}
	if _, ok := s.Lookup("z"); ok {
		t.Fatalf("Lookup(z) should miss")
	}
	s2 := s.With("x", 9)
	if v, _ := s2.Lookup("x"); v != 9 {
		t.Fatalf("With failed")
	}
	if v, _ := s.Lookup("x"); v != 1 {
		t.Fatalf("With mutated original")
	}
	s3 := s.With("a", 5)
	if got := s3.Key(); got != "a=5;x=1;y=2" {
		t.Fatalf("Key = %q", got)
	}
	if !s.Equal(st("y", 2, "x", 1)) {
		t.Fatalf("Equal should ignore map order")
	}
	if s.Equal(s2) || s.Equal(s3) {
		t.Fatalf("distinct states reported Equal")
	}
	if got := s.Tuple([]string{"y", "x", "z"}); got != "<2,1,0>" {
		t.Fatalf("Tuple = %q", got)
	}
	if got := s.String(); got != "{x=1, y=2}" {
		t.Fatalf("String = %q", got)
	}
	if s.Len() != 2 || len(s.Vars()) != 2 {
		t.Fatalf("Len/Vars wrong")
	}
}

// TestStateEqualsWith checks EqualsWith against building the state
// with With, for updates of bound and unbound names at every position,
// and candidates that differ in one binding.
func TestStateEqualsWith(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"a", "m", "x", "z"}
	for it := 0; it < 2000; it++ {
		m := map[string]int64{}
		for _, n := range names {
			if rng.Intn(2) == 0 {
				m[n] = int64(rng.Intn(3))
			}
		}
		base := StateFromMap(m)
		name := names[rng.Intn(len(names))]
		v := int64(rng.Intn(3))
		want := base.With(name, v)
		cands := []State{want, base}
		for _, n := range names {
			cands = append(cands, want.With(n, 5))
		}
		if base.Len() > 0 {
			cands = append(cands, base.With("q", v))
		}
		for _, c := range cands {
			if got, exp := c.EqualsWith(base, name, v), c.Equal(want); got != exp {
				t.Fatalf("%v.EqualsWith(%v, %s, %d) = %v, want %v", c, base, name, v, got, exp)
			}
		}
	}
	s, base := st("x", 1, "y", 2), st("x", 1, "y", 0)
	allocs := testing.AllocsPerRun(100, func() {
		if !s.EqualsWith(base, "y", 2) {
			t.Fatal("EqualsWith missed an equal state")
		}
	})
	if allocs != 0 {
		t.Fatalf("EqualsWith allocated: %v allocs per run", allocs)
	}
}

func TestExprEval(t *testing.T) {
	s := st("x", 7, "y", 3)
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"x - y", 4},
		{"-x + 1", -6},
		{"x % y", 1},
		{"x / y", 2},
		{"2 * -3", -6},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", c.src, err)
		}
		got, err := e.Eval(s)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	if _, err := ParseExpr("x +"); err == nil {
		t.Errorf("dangling operator should fail")
	}
	if _, err := ParseExpr("x ) y"); err == nil {
		t.Errorf("junk after expression should fail")
	}
	e, _ := ParseExpr("x / y")
	if _, err := e.Eval(st("x", 1, "y", 0)); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("division by zero not reported: %v", err)
	}
	e, _ = ParseExpr("x % y")
	if _, err := e.Eval(st("x", 1, "y", 0)); err == nil {
		t.Errorf("modulus by zero not reported")
	}
	e, _ = ParseExpr("q + 1")
	if _, err := e.Eval(st("x", 1)); err == nil {
		t.Errorf("unbound variable not reported")
	}
}

func TestParseFormulaPaperProperty(t *testing.T) {
	f, err := ParseFormula("(x > 0) -> [y = 0, y > z)")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	imp, ok := f.(Implies)
	if !ok {
		t.Fatalf("top is %T, want Implies", f)
	}
	if _, ok := imp.L.(Pred); !ok {
		t.Fatalf("antecedent is %T, want Pred", imp.L)
	}
	iv, ok := imp.R.(Interval)
	if !ok {
		t.Fatalf("consequent is %T, want Interval", imp.R)
	}
	if iv.String() != "[y = 0, y > z)" {
		t.Fatalf("interval renders as %q", iv.String())
	}
	if got := Vars(f); len(got) != 3 || got[0] != "x" || got[1] != "y" || got[2] != "z" {
		t.Fatalf("Vars = %v", got)
	}
}

func TestParseLandingProperty(t *testing.T) {
	// "If the plane has started landing, then landing has been approved
	// and since the approval the radio signal has never been down."
	f, err := ParseFormula("start(landing = 1) -> [approved = 1, radio = 0)")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := Vars(f); len(got) != 3 {
		t.Fatalf("Vars = %v", got)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := MustParseFormula("x = 1 \\/ y = 1 /\\ z = 1")
	// and binds tighter than or.
	if _, ok := f.(Or); !ok {
		t.Fatalf("top should be Or, got %T", f)
	}
	f = MustParseFormula("x = 1 -> y = 1 -> z = 1")
	// -> is right associative.
	imp := f.(Implies)
	if _, ok := imp.R.(Implies); !ok {
		t.Fatalf("implies should be right associative")
	}
	f = MustParseFormula("x=1 <-> y=1 <-> z=1")
	iff := f.(Iff)
	if _, ok := iff.L.(Iff); !ok {
		t.Fatalf("iff should be left associative")
	}
}

func TestParseTemporalOps(t *testing.T) {
	cases := map[string]string{
		"[*] x = 1":          "[*](x = 1)",
		"<*> x = 1":          "<*>(x = 1)",
		"(.) x = 1":          "(.)(x = 1)",
		"!x = 1":             "!(x = 1)",
		"not x = 1":          "!(x = 1)",
		"x = 1 S y = 1":      "(x = 1 S y = 1)",
		"x = 1 since y = 1":  "(x = 1 S y = 1)",
		"x = 1 && y = 2":     "(x = 1 /\\ y = 2)",
		"x = 1 || y = 2":     "(x = 1 \\/ y = 2)",
		"x = 1 and y = 2":    "(x = 1 /\\ y = 2)",
		"x = 1 or y = 2":     "(x = 1 \\/ y = 2)",
		"x == 1":             "x = 1",
		"true":               "true",
		"false":              "false",
		"[*] (<*> (x != 0))": "[*](<*>(x != 0))",
		"start x = 1":        "start(x = 1)",
		"end x = 1":          "end(x = 1)",
	}
	for src, want := range cases {
		f, err := ParseFormula(src)
		if err != nil {
			t.Errorf("ParseFormula(%q): %v", src, err)
			continue
		}
		if f.String() != want {
			t.Errorf("ParseFormula(%q) = %q, want %q", src, f.String(), want)
		}
	}
}

func TestParseArithParenDisambiguation(t *testing.T) {
	f, err := ParseFormula("(x + 1) * 2 > y")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, ok := f.(Pred)
	if !ok || p.Op != GT {
		t.Fatalf("got %T %v", f, f)
	}
	// ((x)) > 0: nested parens resolve to arithmetic.
	if _, err := ParseFormula("((x)) > 0"); err != nil {
		t.Fatalf("nested paren arith: %v", err)
	}
	// Parenthesized formula used as operand of a connective.
	if _, err := ParseFormula("((x > 0) /\\ (y < 2)) -> z = 0"); err != nil {
		t.Fatalf("nested paren formula: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"x",          // bare variable is not a predicate
		"x >",        // missing rhs
		"[x = 1, ]",  // missing q
		"[x = 1)",    // missing comma
		"x = 1 ->",   // dangling implies
		"(x = 1",     // unclosed paren
		"x = 1 junk", // trailing tokens... ("junk" is an ident: actually parses as error)
		"true ? false",
		"x @ 1",
		"99999999999999999999 > 0",
		"since = 1", // reserved word as variable
		"start = 1", // reserved word as variable
	}
	for _, src := range bad {
		if _, err := ParseFormula(src); err == nil {
			t.Errorf("ParseFormula(%q) unexpectedly succeeded", src)
		}
	}
}

func TestMustParseFormulaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustParseFormula("(((")
}

func TestEvalTraceBasics(t *testing.T) {
	states := []State{
		st("x", 0, "y", 0),
		st("x", 1, "y", 0),
		st("x", 1, "y", 1),
	}
	cases := []struct {
		src  string
		want []bool
	}{
		{"x = 1", []bool{false, true, true}},
		{"<*> x = 1", []bool{false, true, true}},
		{"[*] y = 0", []bool{true, true, false}},
		{"(.) x = 1", []bool{false, false, true}},
		{"x = 0 S y = 0", []bool{true, true, false}},
		{"[x = 1, y = 1)", []bool{false, true, false}},
		{"true", []bool{true, true, true}},
		{"false", []bool{false, false, false}},
	}
	for _, c := range cases {
		f := MustParseFormula(c.src)
		got, err := EvalTrace(f, states)
		if err != nil {
			t.Fatalf("EvalTrace(%q): %v", c.src, err)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%q at %d = %v, want %v (full %v)", c.src, i, got[i], c.want[i], got)
			}
		}
	}
}

// TestEvalTracePaperExample2 runs the paper's property against the
// three runs of Fig. 6 and checks that exactly the rightmost one
// violates it. States are (x, y, z) triples starting from (-1,0,0).
func TestEvalTracePaperExample2(t *testing.T) {
	f := MustParseFormula("(x > 0) -> [y = 0, y > z)")
	mk := func(triples ...[3]int) []State {
		out := make([]State, len(triples))
		for i, tr := range triples {
			out[i] = st("x", tr[0], "y", tr[1], "z", tr[2])
		}
		return out
	}
	// Leftmost run (observed): e1 e2 e4 e3.
	observed := mk([3]int{-1, 0, 0}, [3]int{0, 0, 0}, [3]int{0, 0, 1}, [3]int{1, 0, 1}, [3]int{1, 1, 1})
	// Middle run: e1 e2 e3 e4.
	middle := mk([3]int{-1, 0, 0}, [3]int{0, 0, 0}, [3]int{0, 0, 1}, [3]int{0, 1, 1}, [3]int{1, 1, 1})
	// Rightmost run: e1 e3 e2 e4 — y=1 while z=0, then x=1: violation.
	rightmost := mk([3]int{-1, 0, 0}, [3]int{0, 0, 0}, [3]int{0, 1, 0}, [3]int{0, 1, 1}, [3]int{1, 1, 1})

	violates := func(states []State) bool {
		vals, err := EvalTrace(f, states)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if !v {
				return true
			}
		}
		return false
	}
	if violates(observed) {
		t.Errorf("observed run must satisfy the property")
	}
	if violates(middle) {
		t.Errorf("middle run must satisfy the property")
	}
	if !violates(rightmost) {
		t.Errorf("rightmost run must violate the property")
	}
}

func TestGenFormulaParsesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vars := []string{"a", "b"}
	for i := 0; i < 200; i++ {
		f := GenFormula(rng, vars, 4)
		g, err := ParseFormula(f.String())
		if err != nil {
			t.Fatalf("generated formula %q does not reparse: %v", f.String(), err)
		}
		if g.String() != f.String() {
			t.Fatalf("reparse changed formula: %q vs %q", f.String(), g.String())
		}
	}
}

func TestGenStatesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	states := GenStates(rng, []string{"a", "b"}, 10)
	if len(states) != 10 {
		t.Fatalf("want 10 states")
	}
	for _, s := range states {
		if s.Len() != 2 {
			t.Fatalf("state missing vars: %v", s)
		}
	}
}
