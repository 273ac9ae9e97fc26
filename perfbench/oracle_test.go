package main

import (
	"testing"
	"time"

	"gompax/internal/serve"
)

// inProcessDaemon runs the daemon gompaxd wraps, with the workload's
// specs and a fresh store, on an ephemeral loopback port.
func inProcessDaemon(t *testing.T, w workload) string {
	t.Helper()
	d, err := serve.New(serve.Config{Specs: w.specs, StorePath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.ListenTCP("127.0.0.1:0")
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Drain(10 * time.Second) })
	return addr.String()
}

func TestDaemonAgreesWithReference(t *testing.T) {
	w, err := findWorkload("paper-mix")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := preparePool(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	addr := inProcessDaemon(t, w)
	for _, s := range pool {
		if smp := driveSession(addr, s); smp.err != nil {
			t.Fatal(smp.err)
		}
	}
}

func TestPerturbedReferenceIsCaught(t *testing.T) {
	w, err := findWorkload("paper-mix")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := preparePool(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	addr := inProcessDaemon(t, w)
	perturbations := map[string]func(*reference){
		"verdict": func(r *reference) {
			if r.Verdict == "ok" {
				r.Verdict = "violation"
			} else {
				r.Verdict = "ok"
			}
		},
		"violations": func(r *reference) { r.Violations++ },
		"cuts":       func(r *reference) { r.Cuts-- },
	}
	for name, perturb := range perturbations {
		for k := 0; k < len(pool); k += w.seedsPerPair { // one session per program
			s := pool[k]
			orig := s.ref
			perturb(&s.ref)
			smp := driveSession(addr, s)
			s.ref = orig
			if smp.err == nil {
				t.Errorf("perturbed %s of session %d (%s) not caught", name, s.id, s.prog)
			}
		}
	}

	// The closed loop counts every wrong verdict as a failed session.
	pair := pool[:2]
	pair[1].ref.Cuts++
	defer func() { pair[1].ref.Cuts-- }()
	samples, _, _, err := closedLoop(addr, pair, 2, 0, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := 0, 0
	for _, smp := range samples {
		switch {
		case smp.session == pair[0] && smp.err == nil:
			good++
		case smp.session == pair[1] && smp.err != nil:
			bad++
		default:
			t.Errorf("session %d: unexpected outcome %v", smp.session.id, smp.err)
		}
	}
	if good == 0 || bad == 0 {
		t.Fatalf("closed loop: %d correct and %d caught sessions, want both", good, bad)
	}
}
