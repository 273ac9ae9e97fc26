package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"gompax/internal/telemetry/tracing"
)

// minTracedPasses is the fewest traced replay passes a traced run
// makes; per-layer metrics are medians over the passes.
const minTracedPasses = 3

// tracedRun is the traced pass's raw outcome before it becomes metrics.
type tracedRun struct {
	untraced, traced []replayCost
	allocs           allocCounts
	gcFrac           float64
	admit            []float64 // ms, dial → OK against the live daemon
	live             []sample
	spans            []tracing.SpanData
}

// traced is the traced pass. It spends about a fifth of its time on
// untraced replays of the pool, counts allocations in one more pass,
// spends half on traced replays (a span around every layer call) and
// the rest driving a live gompaxd for admission latency, then writes
// every recorded span as Chrome trace JSON.
func traced(c config, w workload, pool []*session, runDir string, out io.Writer) (result, error) {
	total := time.Duration(c.seconds) * time.Second
	tr, err := tracedPasses(c, w, pool, runDir, total)
	if err != nil {
		return result{}, err
	}

	res := result{}
	var failures []error
	for _, cs := range [][]replayCost{tr.untraced, tr.traced} {
		for _, cost := range cs {
			res.Attempted += cost.sessions
			failures = append(failures, cost.mismatches...)
		}
	}
	for _, s := range tr.live {
		res.Attempted++
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
	res.Failed = len(failures)
	res.Correct = res.Failed == 0

	r := &report{out: out, metrics: map[string]metric{}}
	addLayerMetrics(r, tr)
	checkRepeats(out, tr.traced)

	selfTimes := pipelineSelfTimes(tr.spans)
	var sum time.Duration
	for _, l := range selfTimes {
		sum += l.self
	}
	for _, l := range selfTimes {
		fmt.Fprintf(out, "selftime: %-10s %6.1f%%  %.4g ms mean per session\n", l.layer, 100*float64(l.self)/float64(sum), ms(l.self))
	}
	if len(selfTimes) > 0 {
		top := selfTimes[0]
		verdict := "matches the prediction"
		if top.layer != w.predictedTop {
			verdict = "DIFFERS from the prediction"
		}
		fmt.Fprintf(out, "selftime: largest pipeline self time on %s: %s (%.1f%%); predicted %s: %s\n",
			w.name, top.layer, 100*float64(top.self)/float64(sum), w.predictedTop, verdict)
	}

	spanPath := filepath.Join(c.work, "traces", fmt.Sprintf("%s-seed%d.json", w.name, c.seed))
	if err := writeSpans(spanPath, tr.spans); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s (open in chrome://tracing or ui.perfetto.dev)\n", len(tr.spans), spanPath)
	res.Metrics = r.metrics
	return res, nil
}

func tracedPasses(c config, w workload, pool []*session, runDir string, total time.Duration) (tracedRun, error) {
	var tr tracedRun
	start := time.Now()
	base := &replayer{storeDir: filepath.Join(runDir, "untraced")}
	for len(tr.untraced) == 0 || time.Since(start) < total/5 {
		cost, err := base.replayPass(pool)
		if err != nil {
			return tr, err
		}
		tr.untraced = append(tr.untraced, cost)
	}
	allocs, err := countAllocs(pool)
	if err != nil {
		return tr, err
	}
	tr.allocs = allocs

	// The flight recorder keeps the last two traced passes.
	rec := tracing.New(tracing.Options{Process: "perfbench", MaxTraces: 2 * len(pool), Seed: uint64(c.seed)})
	rp := &replayer{tr: rec, storeDir: filepath.Join(runDir, "traced")}
	gc0, cpu0 := gcCPU()
	for len(tr.traced) < minTracedPasses || time.Since(start) < total*7/10 {
		cost, err := rp.replayPass(pool)
		if err != nil {
			return tr, err
		}
		tr.traced = append(tr.traced, cost)
	}
	gc1, cpu1 := gcCPU()
	tr.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)

	d, _, err := launch(c.gompaxd, daemonArgs(w, filepath.Join(runDir, "store")), filepath.Join(runDir, "gompaxd.log"), pool[0])
	if err != nil {
		return tr, err
	}
	window := total - time.Since(start)
	if window < time.Second {
		window = time.Second
	}
	live, _, _, err := closedLoop(d.addr, pool, clients, 0, window)
	if err = errors.Join(err, d.stop()); err != nil {
		return tr, err
	}
	tr.live = live

	// Live sessions are recorded after the fact from the client's
	// timestamps, so recording adds nothing to the loop; the recorder
	// keeps the last 256.
	liveRec := tracing.New(tracing.Options{Process: "perfbench", MaxTraces: 256, Seed: uint64(c.seed) + 1})
	for _, s := range live {
		if s.err != nil {
			continue
		}
		tr.admit = append(tr.admit, ms(s.admit))
		root := liveRec.ContinueTraceAt(liveRec.NewTraceID(), "session", s.start)
		root.SetAttr("session", strconv.Itoa(s.session.id))
		root.SetAttr("live", "true")
		adm := root.ChildAt("serve.admit", s.start)
		adm.SetAttr("role", "pipeline")
		adm.EndAt(s.start.Add(s.admit))
		stream := root.ChildAt("client.stream", s.start.Add(s.admit))
		stream.SetAttr("role", "live")
		stream.EndAt(s.start.Add(s.admit + s.run))
		wait := root.ChildAt("client.verdict_wait", s.start.Add(s.admit+s.run))
		wait.SetAttr("role", "live")
		wait.EndAt(s.end)
		root.EndAt(s.end)
	}
	for _, t := range []*tracing.Tracer{rec, liveRec} {
		for _, id := range t.TraceIDs() {
			tr.spans = append(tr.spans, t.Spans(id)...)
		}
	}
	return tr, nil
}

// addLayerMetrics turns the replay passes into per-layer metrics:
// medians over the traced passes of each pass's ratio.
func addLayerMetrics(r *report, tr tracedRun) {
	ps := tr.traced
	n := fmt.Sprintf("(median of %d traced passes over %d sessions)", len(ps), ps[0].sessions)
	per := func(f func(c replayCost) float64) float64 {
		xs := make([]float64, len(ps))
		for i, c := range ps {
			xs[i] = f(c)
		}
		return median(xs)
	}
	ns := func(d time.Duration, count int) float64 { return float64(d) / float64(count) }
	first := ps[0]

	r.add("interp.run_ns_per_event", per(func(c replayCost) float64 { return ns(c.plain, c.events) }), "ns",
		fmt.Sprintf("%s, %d events per pass", n, first.events))
	r.add("instrument.overhead_x", per(func(c replayCost) float64 { return float64(c.instr) / float64(c.plain) }), "x", n)
	r.add("mvc.track_ns_per_event", per(func(c replayCost) float64 { return ns(c.track, c.rawEvents) }), "ns",
		fmt.Sprintf("%s, %d events per pass", n, first.rawEvents))
	r.add("mvc.track_allocs_per_event", float64(tr.allocs.track)/float64(first.rawEvents), "count", "(count)")
	r.add("wire.encode_ns_per_msg", per(func(c replayCost) float64 { return ns(c.encode, c.msgs) }), "ns",
		fmt.Sprintf("%s, %d messages per pass", n, first.msgs))
	r.add("wire.bytes_per_msg", float64(first.wireBytes)/float64(first.msgs), "B", "(count)")
	r.add("wire.decode_ns_per_msg", per(func(c replayCost) float64 { return ns(c.decode, c.msgs) }), "ns", n)
	r.add("wire.decode_allocs_per_msg", float64(tr.allocs.decode)/float64(first.msgs), "count", "(count)")
	r.add("lattice.reconstruct_ns_per_msg", per(func(c replayCost) float64 { return ns(c.reconstruct, c.msgs) }), "ns", n)
	r.add("predict.feed_ns_per_msg", per(func(c replayCost) float64 { return ns(c.feed, c.msgs) }), "ns", n)
	r.add("predict.close_ms", per(func(c replayCost) float64 { return ms(c.close) / float64(c.sessions) }), "ms", n)
	r.add("predict.explore_ns_per_cut", per(func(c replayCost) float64 { return ns(c.explore, c.cuts) }), "ns",
		fmt.Sprintf("%s, %d cuts per pass", n, first.cuts))
	r.add("predict.allocs_per_cut", float64(tr.allocs.explore)/float64(first.cuts), "count", "(count)")
	r.add("predict.cuts", float64(first.cuts)/float64(first.sessions), "count", "(mean per session)")
	r.add("predict.pairs", float64(first.pairs)/float64(first.sessions), "count", "(mean per session)")
	r.add("predict.max_width", float64(first.maxWidth), "count", "(widest level in the pool)")
	r.add("monitor.step_ns", per(func(c replayCost) float64 { return ns(c.step, c.states) }), "ns",
		fmt.Sprintf("%s, %d states per pass", n, first.states))
	r.add("clock.interned", float64(first.interned)/float64(first.sessions), "count", "(mean per session)")

	ad := summarize(tr.admit, 0.95)
	r.add("serve.admit_p50_ms", ad.P50, "ms", fmt.Sprintf("(n=%d live sessions)", ad.N))
	r.add("serve.store_accepted_us", per(func(c replayCost) float64 { return float64(c.accepted) / float64(c.sessions) / 1e3 }), "us", n)
	r.add("serve.store_append_us", per(func(c replayCost) float64 { return float64(c.appendT) / float64(c.sessions) / 1e3 }), "us", n)
	r.add("serve.store_bytes_per_record", float64(first.storeBytes)/float64(first.records), "B", "(count)")
	r.add("go.gc_cpu_frac", tr.gcFrac, "frac", "(GC CPU over all CPU during the traced replays)")

	rate := func(cs []replayCost) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = float64(c.sessions) / c.elapsed.Seconds()
		}
		return median(xs)
	}
	untraced, traced := rate(tr.untraced), rate(tr.traced)
	r.add("replay.sessions_per_s", untraced, "1/s", fmt.Sprintf("(median of %d untraced passes)", len(tr.untraced)))
	r.add("replay.traced_sessions_per_s", traced, "1/s", fmt.Sprintf("(%s; tracing overhead %.1f%%)", n, 100*(1-traced/untraced)))
}

// checkRepeats prints any count that differs between traced passes:
// counts must repeat exactly for a later change to claim them.
func checkRepeats(out io.Writer, ps []replayCost) {
	for i, c := range ps[1:] {
		f := ps[0]
		if c.cuts != f.cuts || c.pairs != f.pairs || c.maxWidth != f.maxWidth || c.interned != f.interned ||
			c.wireBytes != f.wireBytes || c.storeBytes != f.storeBytes {
			fmt.Fprintf(out, "repeat: traced pass %d counts differ from pass 1\n", i+2)
		}
	}
}

// writeSpans writes spans as Chrome trace-event JSON.
func writeSpans(path string, spans []tracing.SpanData) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracing.WriteChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
