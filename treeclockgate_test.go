package gompax

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"gompax/internal/clock"
)

const (
	// treeDeepAdvantage: at the largest deep scale the tree tracker
	// must allocate at most 1/treeDeepAdvantage of the flat tracker's
	// bytes per op.
	treeDeepAdvantage = 2.0
	// treeScalingFactor: the flat/tree bytes-per-op ratio must grow by
	// at least this factor from the smallest to the largest deep scale
	// — the super-constant claim. A constant-factor win would keep the
	// ratio flat; O(threads) vs O(subtree-changed) makes it climb.
	treeScalingFactor = 1.5
	// treeSmallBudgetPct: on the small paper workloads the shipped
	// default (auto, which stays flat below the promotion threshold)
	// must cost within this percentage of the explicit flat substrate
	// in allocs per op.
	treeSmallBudgetPct = 5.0
	// treeTimeRounds: each substrate's ns/op is the minimum over this
	// many full replays, flat and tree alternating round by round so
	// host noise reaches both arms alike.
	treeTimeRounds = 7
	// treeSampleTime is the least wall time one timed sample covers.
	treeSampleTime = 20 * time.Millisecond
)

type treeDeepResult struct {
	Workload       string  `json:"workload"`
	Threads        int     `json:"threads"`
	Ops            int     `json:"ops"`
	Messages       int     `json:"messages"`
	FlatBytesPerOp float64 `json:"flat_bytes_per_op"`
	TreeBytesPerOp float64 `json:"tree_bytes_per_op"`
	FlatOverTree   float64 `json:"flat_over_tree_ratio"`
	FlatNsPerOp    float64 `json:"flat_ns_per_op"`
	TreeNsPerOp    float64 `json:"tree_ns_per_op"`
	FlatOverTreeNs float64 `json:"flat_over_tree_ns_ratio"`
	// TreeWins: the tree substrate beats flat on both bytes/op and
	// ns/op at this width.
	TreeWins bool `json:"tree_wins"`
}

type treeSmallResult struct {
	Workload      string  `json:"workload"`
	FlatAllocs    float64 `json:"flat_allocs_per_op"`
	AutoAllocs    float64 `json:"auto_allocs_per_op"`
	TreeAllocs    float64 `json:"tree_allocs_per_op"`
	RegressionPct float64 `json:"auto_regression_percent"`
	BudgetPct     float64 `json:"budget_percent"`
	MeetsBudget   bool    `json:"meets_budget"`
}

type treeGateReport struct {
	Description     string           `json:"description"`
	Command         string           `json:"command"`
	DeepAdvantage   float64          `json:"deep_advantage_min"`
	ScalingFactor   float64          `json:"scaling_factor_min"`
	SmallBudgetPct  float64          `json:"small_budget_percent"`
	Environment     map[string]any   `json:"environment"`
	Deep            []treeDeepResult `json:"deep"`
	RatioAtSmallest float64          `json:"ratio_at_smallest"`
	RatioAtLargest  float64          `json:"ratio_at_largest"`
	RatioGrowth     float64          `json:"ratio_growth"`
	MeetsScaling    bool             `json:"meets_scaling"`
	MeetsAdvantage  bool             `json:"meets_advantage"`
	// Crossover is the smallest measured width at which tree beats
	// flat on both bytes/op and ns/op, BytesCrossover the same on
	// bytes/op alone (0 if none does). AutoThreshold is the
	// clock.DefaultAutoThreshold the build ships.
	Crossover          int               `json:"crossover_threads"`
	BytesCrossover     int               `json:"bytes_crossover_threads"`
	AutoThreshold      int               `json:"auto_threshold"`
	ThresholdCrossover bool              `json:"threshold_at_crossover"`
	Small              []treeSmallResult `json:"small"`
}

// trackerBytesPerOp measures the tracker phase's allocated bytes per
// processed event on one substrate: a warmup run, then the MemStats
// TotalAlloc delta over a few full replays. Byte counts on this
// single-goroutine workload are deterministic in a way wall-clock time
// is not, so the gate is safe on shared hardware.
func trackerBytesPerOp(w clockWorkload, copts clock.Options) float64 {
	trackOnly(w, copts) // warmup: faults, map growth paths
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		trackOnly(w, copts)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds*len(w.ops))
}

// cpuModel is the first "model name" line of /proc/cpuinfo, recorded
// with the ns/op figures ("" where the file does not exist).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// trackerNsPerOp measures the tracker phase's wall time per processed
// event on the flat and the tree substrate. A sample is enough
// back-to-back replays to fill treeSampleTime (sized from a warmup
// replay, so the small scales are not timer- and GC-noise); each arm's
// figure is its minimum over treeTimeRounds samples, the two arms
// alternating and each sample starting from a collected heap. Time is
// noisy on shared hardware, so the minimum — the sample the host
// disturbed least — is what is compared.
func trackerNsPerOp(w clockWorkload) (flat, tree float64) {
	arms := []clock.Options{{Repr: clock.ReprFlat}, {Repr: clock.ReprTree}}
	start := time.Now()
	for _, o := range arms {
		trackOnly(w, o)
	}
	reps := int(2*treeSampleTime/time.Since(start)) + 1
	best := []time.Duration{0, 0}
	for r := 0; r < treeTimeRounds; r++ {
		for i, o := range arms {
			runtime.GC()
			start := time.Now()
			for k := 0; k < reps; k++ {
				trackOnly(w, o)
			}
			if d := time.Since(start); best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	ops := float64(reps * len(w.ops))
	return float64(best[0].Nanoseconds()) / ops, float64(best[1].Nanoseconds()) / ops
}

// TestTreeClockGate enforces the tree-clock scaling budget and
// regenerates BENCH_treeclock.json from the measured numbers, so the
// checked-in artifact always matches the gate that passed.
//
// Deep side (the win): on the DeepFanIn workloads the flat substrate
// pays O(threads) bytes per wide join (spine copy) while the tree
// substrate pays O(subtree-changed). The gate demands (a) tree ≤
// flat/2 bytes per op at the largest scale and (b) the flat/tree ratio
// grows ≥1.5× from 64 to 1024 threads — a super-constant, not merely
// constant-factor, advantage.
//
// Crossover (the auto threshold): every deep row also records ns/op
// (min-of-k, see trackerNsPerOp). clock.DefaultAutoThreshold must equal
// the smallest measured width at which tree allocates fewer bytes per
// op than flat; the smallest width at which tree wins on both bytes
// and time is recorded next to it as crossover_threads.
//
// Small side (the non-regression): on the fig6 and peterson paper
// workloads the shipped default substrate (auto) must stay within 5%
// of explicit flat in allocs per op; auto only promotes past the
// threshold, so the small-program cost of the tree substrate's
// existence is one atomic load. Explicit tree allocs are recorded for
// transparency but not gated — small programs should simply not use it,
// and auto makes sure they don't.
//
// Hidden behind an env var so plain `go test ./...` stays fast:
// GOMPAX_TREECLOCK_GATE=1 make bench-treeclock.
func TestTreeClockGate(t *testing.T) {
	if os.Getenv("GOMPAX_TREECLOCK_GATE") == "" {
		t.Skip("set GOMPAX_TREECLOCK_GATE=1 to run the tree-clock scaling gate")
	}
	report := treeGateReport{
		Description:    "Tree-clock scaling gate (TestTreeClockGate): Algorithm A tracking bytes/op on the progs.DeepFanIn wide fan-in workloads at 64/256/512/1024 threads, flat vs tree substrate (MemStats TotalAlloc deltas over full replays; ns/op is the minimum over 7 alternating samples of >= 20 ms of back-to-back replays), plus allocs/op non-regression of the auto default vs explicit flat on the fig6 and peterson paper workloads (testing.AllocsPerRun). Gates: tree <= flat/deep_advantage_min bytes at the largest scale; flat/tree ratio grows >= scaling_factor_min from smallest to largest scale; auto within small_budget_percent of flat on the paper workloads; auto_threshold equals bytes_crossover_threads (the smallest width where tree allocates fewer bytes than flat). crossover_threads is the smallest width where tree wins on both bytes and ns, recorded, not gated.",
		Command:        "GOMPAX_TREECLOCK_GATE=1 go test -count=1 -run TestTreeClockGate -v .",
		DeepAdvantage:  treeDeepAdvantage,
		ScalingFactor:  treeScalingFactor,
		SmallBudgetPct: treeSmallBudgetPct,
		Environment: map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"cpu_model":  cpuModel(),
		},
	}

	deeps, err := deepWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range deeps {
		msgs := trackOnly(w, clock.Options{Repr: clock.ReprFlat})
		if got := trackOnly(w, clock.Options{Repr: clock.ReprTree}); got != msgs {
			t.Fatalf("%s: tree tracker emitted %d messages, flat %d", w.name, got, msgs)
		}
		fb := trackerBytesPerOp(w, clock.Options{Repr: clock.ReprFlat})
		tb := trackerBytesPerOp(w, clock.Options{Repr: clock.ReprTree})
		fns, tns := trackerNsPerOp(w)
		res := treeDeepResult{
			Workload:       w.name,
			Threads:        w.threads,
			Ops:            len(w.ops),
			Messages:       msgs,
			FlatBytesPerOp: round2(fb),
			TreeBytesPerOp: round2(tb),
			FlatOverTree:   round2(fb / tb),
			FlatNsPerOp:    round2(fns),
			TreeNsPerOp:    round2(tns),
			FlatOverTreeNs: round2(fns / tns),
			TreeWins:       tb < fb && tns < fns,
		}
		report.Deep = append(report.Deep, res)
		if res.TreeWins && report.Crossover == 0 {
			report.Crossover = w.threads
		}
		if tb < fb && report.BytesCrossover == 0 {
			report.BytesCrossover = w.threads
		}
		t.Logf("%s: flat %.0f B/op %.0f ns/op, tree %.0f B/op %.0f ns/op, ratio %.2f bytes %.2f time",
			w.name, fb, fns, tb, tns, fb/tb, fns/tns)
	}
	report.AutoThreshold = clock.DefaultAutoThreshold
	report.ThresholdCrossover = report.Crossover == clock.DefaultAutoThreshold
	first, last := report.Deep[0], report.Deep[len(report.Deep)-1]
	report.RatioAtSmallest = first.FlatOverTree
	report.RatioAtLargest = last.FlatOverTree
	report.RatioGrowth = round2(last.FlatOverTree / first.FlatOverTree)
	report.MeetsAdvantage = last.FlatOverTree >= treeDeepAdvantage
	report.MeetsScaling = report.RatioGrowth >= treeScalingFactor

	smalls, err := clockWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	smallOK := true
	for _, w := range smalls {
		w := w
		measure := func(copts clock.Options) float64 {
			return testing.AllocsPerRun(10, func() { trackOnly(w, copts) })
		}
		flat := measure(clock.Options{Repr: clock.ReprFlat})
		auto := measure(clock.Options{Repr: clock.ReprAuto})
		tree := measure(clock.Options{Repr: clock.ReprTree})
		regression := (auto - flat) / flat * 100
		res := treeSmallResult{
			Workload:      w.name,
			FlatAllocs:    flat,
			AutoAllocs:    auto,
			TreeAllocs:    tree,
			RegressionPct: round2(regression),
			BudgetPct:     treeSmallBudgetPct,
			MeetsBudget:   regression <= treeSmallBudgetPct,
		}
		report.Small = append(report.Small, res)
		t.Logf("%s: flat %.0f allocs/op, auto %.0f, tree %.0f, auto regression %.1f%% (budget %.0f%%)",
			w.name, flat, auto, tree, regression, treeSmallBudgetPct)
		if !res.MeetsBudget {
			smallOK = false
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile("BENCH_treeclock.json", out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_treeclock.json")

	if !report.MeetsAdvantage {
		t.Errorf("tree substrate must allocate ≤ flat/%.0f bytes per op at %d threads; ratio is %.2f",
			treeDeepAdvantage, last.Threads, last.FlatOverTree)
	}
	if !report.MeetsScaling {
		t.Errorf("flat/tree ratio must grow ≥%.1f× from %d to %d threads; grew %.2f× (%.2f → %.2f)",
			treeScalingFactor, first.Threads, last.Threads, report.RatioGrowth,
			report.RatioAtSmallest, report.RatioAtLargest)
	}
	// The byte half of the crossover is deterministic and gated; the
	// time half is recorded, and a disagreement is reported rather than
	// failed, since one noisy replay can flip a near-even width.
	if report.BytesCrossover != clock.DefaultAutoThreshold {
		t.Errorf("clock.DefaultAutoThreshold is %d but the tree substrate first allocates fewer bytes per op than flat at %d threads",
			clock.DefaultAutoThreshold, report.BytesCrossover)
	}
	if !report.ThresholdCrossover {
		t.Logf("note: measured time+bytes crossover is %d threads, clock.DefaultAutoThreshold is %d; rerun on a quiet host before moving the threshold",
			report.Crossover, clock.DefaultAutoThreshold)
	}
	if !smallOK {
		t.Errorf("auto substrate must stay within %.0f%% of flat allocs/op on the paper workloads (see BENCH_treeclock.json)", treeSmallBudgetPct)
	}
}
