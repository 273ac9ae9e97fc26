package main

import (
	"bytes"
	"testing"

	"gompax/internal/telemetry/tracing"
)

// TestSameSeedRepeats checks what later changes may claim as counts:
// one workload seed gives byte-identical session captures, identical
// allocation counts, and identical wire, store and predict counts on
// two traced passes.
func TestSameSeedRepeats(t *testing.T) {
	for _, w := range workloads() {
		if testing.Short() && w.name != "paper-mix" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var pools [2][]*session
			var costs [2]replayCost
			var allocs [2]allocCounts
			for i := range pools {
				pool, err := preparePool(w, 3)
				if err != nil {
					t.Fatal(err)
				}
				rp := &replayer{tr: tracing.New(tracing.Options{MaxTraces: len(pool)}), storeDir: t.TempDir()}
				if costs[i], err = rp.replayPass(pool); err != nil {
					t.Fatal(err)
				}
				if allocs[i], err = countAllocs(pool); err != nil {
					t.Fatal(err)
				}
				pools[i] = pool
			}
			for k := range pools[0] {
				a, b := pools[0][k], pools[1][k]
				if a.seed != b.seed || a.ref != b.ref || !bytes.Equal(a.capture, b.capture) {
					t.Fatalf("session %d differs between two pools from seed 3", k)
				}
			}
			a, b := costs[0], costs[1]
			type counts struct {
				events, rawEvents, msgs, states, records, cuts, pairs, maxWidth, interned int
				wireBytes, storeBytes                                                     int64
			}
			ca := counts{a.events, a.rawEvents, a.msgs, a.states, a.records, a.cuts, a.pairs, a.maxWidth, a.interned, a.wireBytes, a.storeBytes}
			cb := counts{b.events, b.rawEvents, b.msgs, b.states, b.records, b.cuts, b.pairs, b.maxWidth, b.interned, b.wireBytes, b.storeBytes}
			if ca != cb {
				t.Errorf("counts differ:\n%+v\n%+v", ca, cb)
			}
			if allocs[0] != allocs[1] {
				t.Errorf("allocation counts differ: %+v vs %+v", allocs[0], allocs[1])
			}
			if len(a.mismatches)+len(b.mismatches) > 0 {
				t.Errorf("online analysis disagrees with the reference: %v %v", a.mismatches, b.mismatches)
			}
		})
	}

	w, err := findWorkload("paper-mix")
	if err != nil {
		t.Fatal(err)
	}
	p3, err := preparePool(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := preparePool(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for k := range p3 {
		if p3[k].seed == p4[k].seed {
			same++
		}
	}
	if same == len(p3) {
		t.Fatal("seeds 3 and 4 gave the same scheduler seeds")
	}
}
