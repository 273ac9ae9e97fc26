// Command perfbench is gompax's end-to-end benchmark. It builds a
// seeded pool of client sessions for one workload, checks every
// session's verdict against an offline reference, and measures either
// the end-to-end metrics of a live gompaxd child process driven by a
// closed loop of clients (-trace 0) or the per-layer metrics of a
// traced replay of the same sessions (-trace 1). The last line of its
// output is one JSON object with the run's metrics.
//
// Run it through run.sh, which builds gompaxd and this command from
// the checkout's sources:
//
//	bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// clients is the closed loop's client count: one per CPU of the
// two-CPU host the benchmark was sized on.
const clients = 2

// setupLaunches is how many times a run starts gompaxd to time set-up;
// setup_s is their median.
const setupLaunches = 21

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and prints each with its sample
// count as it is added.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(r.out, "metric %-34s %14.6g %-6s %s\n", name, value, unit, note)
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	gompaxd  string
	work     string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload name: paper-mix, wide-lattice or deep-fanin")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; the session pool and every scheduler seed derive from it")
	fs.IntVar(&c.seconds, "seconds", 30, "length of the measured phase in seconds")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics through gompaxd; 1: traced per-layer pass")
	fs.StringVar(&c.gompaxd, "gompaxd", "", "path of the gompaxd binary")
	fs.StringVar(&c.work, "work", ".bench_build", "directory for stores, logs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.gompaxd == "" || c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -gompaxd, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	w, err := findWorkload(c.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(c, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", name, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure prepares the session pool and runs the selected pass in a
// fresh run directory, removed again when the pass succeeds.
func measure(c config, w workload, out io.Writer) (result, error) {
	runDir, err := filepath.Abs(filepath.Join(c.work, "runs", fmt.Sprintf("%s-seed%d-%d", w.name, c.seed, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%d clients=%d (closed loop)\n",
		w.name, c.seed, c.seconds, c.trace, clients)
	printProvenance(out, c, daemonArgs(w, "<fresh store dir>"))

	t0 := time.Now()
	pool, err := preparePool(w, c.seed)
	if err != nil {
		return result{}, fmt.Errorf("preparing sessions: %w", err)
	}
	describePool(out, pool, time.Since(t0))

	var res result
	if c.trace == 0 {
		res, err = endToEnd(c, w, pool, runDir, out)
	} else {
		res, err = traced(c, w, pool, runDir, out)
	}
	if err != nil {
		return res, fmt.Errorf("%w (run directory %s kept)", err, runDir)
	}
	return res, os.RemoveAll(runDir)
}

// describePool prints the pool and its references.
func describePool(out io.Writer, pool []*session, took time.Duration) {
	type key struct{ prog, spec string }
	type agg struct {
		n, msgs, cuts, violating, extraReports int
	}
	var keys []key
	by := map[key]*agg{}
	for _, s := range pool {
		k := key{s.prog, s.spec}
		a := by[k]
		if a == nil {
			a = &agg{}
			by[k] = a
			keys = append(keys, k)
		}
		a.n++
		a.msgs += len(s.msgs)
		a.cuts += s.ref.Cuts
		if s.ref.Verdict == "violation" {
			a.violating++
		}
		if s.ref.Reports != s.ref.Violations {
			a.extraReports++
		}
	}
	fmt.Fprintf(out, "pool: %d sessions, references computed offline in %.3fs\n", len(pool), took.Seconds())
	for _, k := range keys {
		a := by[k]
		fmt.Fprintf(out, "pool: %-22s spec=%-11s sessions=%d mean_msgs=%.1f mean_cuts=%.1f violating=%d\n",
			k.prog, k.spec, a.n, float64(a.msgs)/float64(a.n), float64(a.cuts)/float64(a.n), a.violating)
		if a.extraReports > 0 {
			fmt.Fprintf(out, "pool: note: %d %s/%s session(s) have more offline (cut, monitor state) reports than violating cuts; the verdict line counts cuts\n",
				a.extraReports, k.prog, k.spec)
		}
	}
}

// endToEnd is the untraced pass: gompaxd set-up timed over several
// launches, then the closed loop against the last one.
func endToEnd(c config, w workload, pool []*session, runDir string, out io.Writer) (result, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupLaunches; i++ {
		store := filepath.Join(runDir, "store-"+strconv.Itoa(i))
		dd, setup, err := launch(c.gompaxd, daemonArgs(w, store), filepath.Join(runDir, "gompaxd-"+strconv.Itoa(i)+".log"), pool[0])
		if err != nil {
			return result{}, err
		}
		setups = append(setups, setup.Seconds())
		if i < setupLaunches-1 {
			if err := dd.kill(); err != nil {
				return result{}, err
			}
			continue
		}
		d = dd
	}

	warmup := time.Second
	steal0 := hostSteal()
	samples, from, to, err := closedLoop(d.addr, pool, clients, warmup, time.Duration(c.seconds)*time.Second)
	steal := hostSteal().since(steal0)
	rss, rerr := d.peakRSSMB()
	serr := d.stop()
	if err = errors.Join(err, rerr, serr); err != nil {
		return result{}, err
	}

	var failures []error
	for _, s := range samples {
		if s.err != nil {
			failures = append(failures, s.err)
		}
	}
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(out, "failure: ... %d more\n", len(failures)-5)
			break
		}
		fmt.Fprintf(out, "failure: %v\n", f)
	}
	res := result{Attempted: len(samples), Failed: len(failures), Correct: len(failures) == 0 && len(samples) > 0}
	ok := len(samples) - len(failures)
	if ok == 0 {
		return res, fmt.Errorf("no session completed correctly in the measured window")
	}
	sl, err := sliceWindow(samples, from, to)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "host: %.1f%% of CPU time stolen by the hypervisor during the measured phase\n", 100*steal)
	fmt.Fprintf(out, "slices: %d slices of %.1fs; correct sessions/s per slice: %s\n", len(sl), to.Sub(from).Seconds()/float64(len(sl)), fmtList(sl.rates()))

	r := &report{out: out, metrics: map[string]metric{}}
	n := fmt.Sprintf("(median over %d slices; n=%d sessions)", len(sl), ok)
	r.add("sessions_per_s", sl.median(func(s slice) float64 { return s.rate }), "1/s", n)
	r.add("events_per_s", sl.median(func(s slice) float64 { return s.eventRate }), "1/s", n)
	r.add("session_p50_ms", sl.median(func(s slice) float64 { return s.session.P50 }), "ms", n)
	r.add("session_p95_ms", sl.median(func(s slice) float64 { return s.session.Tail }), "ms", n)
	r.add("verdict_lag_p50_ms", sl.median(func(s slice) float64 { return s.lag.P50 }), "ms", n)
	r.add("verdict_lag_p95_ms", sl.median(func(s slice) float64 { return s.lag.Tail }), "ms", n)
	r.add("run_p50_ms", sl.median(func(s slice) float64 { return s.run.P50 }), "ms", n)
	r.add("daemon_rss_mb", rss, "MiB", "(VmHWM after the measured phase)")
	sort.Float64s(setups)
	r.add("setup_s", median(setups), "s", fmt.Sprintf("(median of %d launches, min %.4g max %.4g)", len(setups), setups[0], setups[len(setups)-1]))
	r.add("verdict_ok_frac", float64(ok)/float64(len(samples)), "frac",
		fmt.Sprintf("(error_rate=%.6g: %d REJECTs, transport errors or wrong verdicts of %d attempted)",
			float64(len(failures))/float64(len(samples)), len(failures), len(samples)))
	res.Metrics = r.metrics
	return res, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}
