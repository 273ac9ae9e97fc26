package instrument

import (
	"fmt"
	"io"

	"gompax/internal/event"
	"gompax/internal/interp"
	"gompax/internal/logic"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/sched"
	"gompax/internal/telemetry"
	"gompax/internal/wire"
)

// routeSink adapts the session's wire.Senders to mvc.Sink, streaming
// each relevant message as it is generated — the socket of JMPaX's
// Fig. 4. Thread i's messages travel on sender i mod len(senders).
type routeSink struct {
	senders []*wire.Sender
	err     error
}

func (rs *routeSink) route(thread int) *wire.Sender {
	return rs.senders[thread%len(rs.senders)]
}

// Emit implements mvc.Sink.
func (rs *routeSink) Emit(m event.Message) {
	if rs.err != nil {
		return
	}
	rs.err = rs.route(m.Event.Thread).SendMessage(m)
}

// RunStreaming executes the program under the scheduler with
// instrumentation attached, streaming the whole session (hello,
// messages, per-thread completion notices, bye) to w. initial must be
// the initial state of the relevant variables.
func RunStreaming(code *mtl.Compiled, policy mvc.Policy, initial logic.State, s sched.Scheduler, maxEvents uint64, w io.Writer) error {
	return runStreaming("stream", code, policy, initial, s, maxEvents, []io.Writer{w})
}

// RunStreamingChannels executes the program with instrumentation,
// splitting the session across several channels: thread i's messages
// and completion notice travel on channel i mod len(ws). Every channel
// carries the Hello and a closing Bye; each channel individually
// preserves its threads' message order while the channels themselves
// race — the deployment §2.2 alludes to with "multiple channels to
// reduce the monitoring overhead".
func RunStreamingChannels(code *mtl.Compiled, policy mvc.Policy, initial logic.State, s sched.Scheduler, maxEvents uint64, ws []io.Writer) error {
	return runStreaming("channels", code, policy, initial, s, maxEvents, ws)
}

// runStreaming is the streaming scheduler loop behind RunStreaming and
// RunStreamingChannels; mode labels the run in gompax_instrument_runs_total.
func runStreaming(mode string, code *mtl.Compiled, policy mvc.Policy, initial logic.State, s sched.Scheduler, maxEvents uint64, ws []io.Writer) error {
	if len(ws) == 0 {
		return fmt.Errorf("instrument: no channels")
	}
	if len(code.Tasks) > 0 {
		return fmt.Errorf("instrument: streaming sessions do not support dynamically spawned threads (the hello frame fixes the thread count)")
	}
	mRuns.With(mode).Inc()
	sp := telemetry.StartSpan("instrument.stream")
	defer sp.End()
	sink := &routeSink{senders: make([]*wire.Sender, len(ws))}
	for i, w := range ws {
		sink.senders[i] = wire.NewSender(w)
		if err := sink.senders[i].SendHello(wire.Hello{Threads: len(code.Threads), Initial: initial}); err != nil {
			return err
		}
	}
	in := New(len(code.Threads), policy, sink)
	m := interp.NewMachine(code, in)

	done := make([]bool, len(code.Threads))
	for !m.Done() {
		runnable := m.Runnable()
		if len(runnable) == 0 {
			break // deadlock: stream what we have and close the session
		}
		tid := s.Next(runnable)
		kind, err := m.Step(tid)
		if err != nil {
			return err
		}
		if sink.err != nil {
			return sink.err
		}
		if kind == interp.Finished && !done[tid] {
			done[tid] = true
			if err := sink.route(tid).SendThreadDone(tid); err != nil {
				return err
			}
		}
		if maxEvents > 0 && m.Events() > maxEvents {
			break
		}
		// Flush eagerly so the observer sees events promptly; a real
		// deployment would flush on a timer or buffer high-water mark.
		for _, snd := range sink.senders {
			if err := snd.Flush(); err != nil {
				return err
			}
		}
	}
	// Threads that never reached their halt step (deadlock/limit) are
	// still marked complete: the session is over.
	for tid := range done {
		if !done[tid] {
			if err := sink.route(tid).SendThreadDone(tid); err != nil {
				return err
			}
		}
	}
	for _, snd := range sink.senders {
		if err := snd.SendBye(); err != nil {
			return err
		}
	}
	return nil
}
