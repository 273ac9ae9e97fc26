package interp

import (
	"fmt"
	"sort"
	"strings"

	"gompax/internal/mtl"
)

// Channel semantics. MTL channels follow Go's: unbuffered channels
// rendezvous (a send completes together with its receive), buffered
// channels are per-channel FIFOs, close makes subsequent receives
// drain the buffer and then yield zero while subsequent sends fault,
// and select fires the first ready case in syntactic order
// (deterministic, so the exhaustive explorer stays exact ground
// truth). One Step emits one event — except a completed rendezvous,
// which emits the ChanSend and the matching ChanRecv back to back so
// observers always see the pair adjacent and in order.
//
// Parking: a thread with no available partner parks (BlockedSend /
// BlockedRecv / BlockedSelect) and emits a single ChanBlock event the
// first time it parks at a given operation. Waking is retry-based: a
// state change on the channel makes parked threads Runnable again and
// they re-execute the operation — re-parking silently (no event) when
// it still cannot proceed. The one direct completion is the
// unbuffered rendezvous, where the arriving thread completes the
// lowest-id parked plain partner in the same step. Two selects cannot
// rendezvous with each other on an unbuffered channel (a documented
// modeling restriction — both sides park and neither completes the
// other); route one side through a plain send/recv instead.

// Faults returns the channel runtime faults recorded so far (sends on
// closed channels), in occurrence order.
func (m *Machine) Faults() []string {
	return append([]string(nil), m.faults...)
}

// ChannelsPending returns, for every channel with undelivered buffered
// values, how many values remain (the machine-level "lost message"
// count once the run has ended).
func (m *Machine) ChannelsPending() map[string]int {
	out := map[string]int{}
	for name, c := range m.chans {
		if len(c.buf) > 0 {
			out[name] = len(c.buf)
		}
	}
	return out
}

// ChannelBlocked returns descriptions of threads parked on channel
// operations, sorted by thread id — the machine-level partial-deadlock
// witness at end of run.
func (m *Machine) ChannelBlocked() []string {
	var out []string
	for i := range m.threads {
		t := &m.threads[i]
		if t.status.IsChannelBlocked() {
			out = append(out, fmt.Sprintf("%s %s on %s", t.name, t.status, t.blockedOn))
		}
	}
	return out
}

func (m *Machine) emitChanBlock(tid int, ch, aux string) {
	m.events++
	if m.chooks != nil {
		m.chooks.ChanBlock(tid, ch, aux)
	}
}

func (m *Machine) emitSend(tid int, ch string, val, capacity int64, partner int) {
	m.events++
	if m.chooks != nil {
		m.chooks.ChanSend(tid, ch, val, capacity, partner)
	}
}

func (m *Machine) emitRecv(tid int, ch string, val int64) {
	m.events++
	if m.chooks != nil {
		m.chooks.ChanRecv(tid, ch, val)
	}
}

// faultSendClosed records the send-on-closed fault and halts the
// thread (modeling Go's panic killing the goroutine).
func (m *Machine) faultSendClosed(tid int, ch string, val int64) {
	t := &m.threads[tid]
	m.faults = append(m.faults, fmt.Sprintf("send on closed channel %s by %s", ch, t.name))
	m.setStatus(tid, Done)
	t.parked = false
	t.blockedOn = ""
	m.events++
	if m.chooks != nil {
		m.chooks.ChanSendClosed(tid, ch, val)
	}
}

// parkedPlain returns the lowest-id thread parked in the given plain
// status on the named channel, or -1.
func (m *Machine) parkedPlain(status Status, ch string) int {
	for i := range m.threads {
		t := &m.threads[i]
		if t.status == status && t.blockedOn == ch {
			return i
		}
	}
	return -1
}

// selWatches reports whether a select-parked thread has a case on ch.
func selWatches(t *threadState, ch string) bool {
	in := t.unit.Code[t.pc]
	if in.Op != mtl.OpSelect {
		return false
	}
	for _, c := range in.Sel.Cases {
		if c.Chan == ch {
			return true
		}
	}
	return false
}

// wakeSelectors makes select-parked threads watching ch runnable so
// they re-check readiness on their next step.
func (m *Machine) wakeSelectors(ch string) {
	for i := range m.threads {
		t := &m.threads[i]
		if t.status == BlockedSelect && selWatches(t, ch) {
			m.setStatus(i, Runnable)
		}
	}
}

// wakeChan makes every thread parked on ch runnable: plain senders and
// receivers re-execute their operation, selectors re-check readiness.
func (m *Machine) wakeChan(ch string) {
	for i := range m.threads {
		t := &m.threads[i]
		switch {
		case (t.status == BlockedSend || t.status == BlockedRecv) && t.blockedOn == ch:
			m.setStatus(i, Runnable)
		case t.status == BlockedSelect && selWatches(t, ch):
			m.setStatus(i, Runnable)
		}
	}
}

// completeRecv finishes a parked plain receiver as part of a
// rendezvous: push the value, advance past its OpRecv, make it
// runnable. The caller emits the ChanRecv event for it.
func (m *Machine) completeRecv(rid int, val int64) {
	rt := &m.threads[rid]
	rt.stack = append(rt.stack, val)
	rt.pc++
	m.setStatus(rid, Runnable)
	rt.blockedOn = ""
	rt.parked = false
}

// completeSend finishes a parked plain sender as part of a rendezvous:
// take its value off its stack, advance past its OpSend, make it
// runnable. The caller emits the ChanSend event for it.
func (m *Machine) completeSend(sid int) int64 {
	st := &m.threads[sid]
	val := st.stack[len(st.stack)-1]
	st.stack = st.stack[:len(st.stack)-1]
	st.pc++
	m.setStatus(sid, Runnable)
	st.blockedOn = ""
	st.parked = false
	return val
}

func (m *Machine) stepSend(tid int, in mtl.Instr) (StepKind, error) {
	t := &m.threads[tid]
	ch, ok := m.chans[in.Name]
	if !ok {
		return Finished, m.fail(tid, "send on unknown channel %s", in.Name)
	}
	if ch.closed {
		val := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		m.faultSendClosed(tid, in.Name, val)
		return Progressed, nil
	}
	if ch.cap > 0 {
		if int64(len(ch.buf)) < ch.cap {
			val := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			ch.buf = append(ch.buf, val)
			t.pc++
			t.parked = false
			m.emitSend(tid, in.Name, val, ch.cap, -1)
			m.wakeChan(in.Name)
			return Progressed, nil
		}
	} else if rid := m.parkedPlain(BlockedRecv, in.Name); rid >= 0 {
		val := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.pc++
		t.parked = false
		m.completeRecv(rid, val)
		m.emitSend(tid, in.Name, val, 0, rid)
		m.emitRecv(rid, in.Name, val)
		return Progressed, nil
	}
	first := !t.parked
	t.parked = true
	m.setStatus(tid, BlockedSend)
	t.blockedOn = in.Name
	if first {
		m.emitChanBlock(tid, in.Name, "send("+in.Name+")")
		// A parked plain sender makes recv cases on this channel ready.
		m.wakeSelectors(in.Name)
	}
	return Blocked, nil
}

func (m *Machine) stepRecv(tid int, in mtl.Instr) (StepKind, error) {
	t := &m.threads[tid]
	ch, ok := m.chans[in.Name]
	if !ok {
		return Finished, m.fail(tid, "receive on unknown channel %s", in.Name)
	}
	if len(ch.buf) > 0 {
		val := ch.buf[0]
		ch.buf = ch.buf[1:]
		t.stack = append(t.stack, val)
		t.pc++
		t.parked = false
		m.emitRecv(tid, in.Name, val)
		// A freed buffer slot lets parked senders retry.
		m.wakeChan(in.Name)
		return Progressed, nil
	}
	if ch.closed {
		t.stack = append(t.stack, 0)
		t.pc++
		t.parked = false
		m.events++
		if m.chooks != nil {
			m.chooks.ChanRecvClosed(tid, in.Name)
		}
		return Progressed, nil
	}
	if ch.cap == 0 {
		if sid := m.parkedPlain(BlockedSend, in.Name); sid >= 0 {
			val := m.completeSend(sid)
			t.stack = append(t.stack, val)
			t.pc++
			t.parked = false
			m.emitSend(sid, in.Name, val, 0, tid)
			m.emitRecv(tid, in.Name, val)
			return Progressed, nil
		}
	}
	first := !t.parked
	t.parked = true
	m.setStatus(tid, BlockedRecv)
	t.blockedOn = in.Name
	if first {
		m.emitChanBlock(tid, in.Name, "recv("+in.Name+")")
		// A parked plain receiver makes send cases on this channel ready.
		m.wakeSelectors(in.Name)
	}
	return Blocked, nil
}

func (m *Machine) stepClose(tid int, in mtl.Instr) (StepKind, error) {
	t := &m.threads[tid]
	ch, ok := m.chans[in.Name]
	if !ok {
		return Finished, m.fail(tid, "close of unknown channel %s", in.Name)
	}
	if ch.closed {
		return Finished, m.fail(tid, "close of already-closed channel %s", in.Name)
	}
	ch.closed = true
	t.pc++
	t.parked = false
	m.events++
	if m.chooks != nil {
		m.chooks.ChanClose(tid, in.Name)
	}
	// Parked receivers drain to zero values, parked senders fault, and
	// selectors re-check — all on their next scheduled step.
	m.wakeChan(in.Name)
	return Progressed, nil
}

// selectAux renders a select's alternatives for the ChanBlock event,
// e.g. "select:recv(a),send(b)".
func selectAux(sel *mtl.SelectCode) string {
	var b strings.Builder
	b.WriteString("select:")
	for i, c := range sel.Cases {
		if i > 0 {
			b.WriteByte(',')
		}
		if c.Send {
			b.WriteString("send(")
		} else {
			b.WriteString("recv(")
		}
		b.WriteString(c.Chan)
		b.WriteByte(')')
	}
	return b.String()
}

// selectReady reports whether a case can fire right now.
func (m *Machine) selectReady(c mtl.SelectOp) bool {
	ch := m.chans[c.Chan]
	if ch == nil {
		return false
	}
	if c.Send {
		if ch.closed {
			return true // fires the send-on-closed fault
		}
		if ch.cap > 0 {
			return int64(len(ch.buf)) < ch.cap
		}
		return m.parkedPlain(BlockedRecv, c.Chan) >= 0
	}
	if len(ch.buf) > 0 || ch.closed {
		return true
	}
	return ch.cap == 0 && m.parkedPlain(BlockedSend, c.Chan) >= 0
}

func (m *Machine) stepSelect(tid int, in mtl.Instr) (StepKind, error) {
	t := &m.threads[tid]
	sel := in.Sel
	// popSendVals removes the send-case values pushed before OpSelect,
	// returning them in case order.
	popSendVals := func() []int64 {
		base := len(t.stack) - sel.NumSend
		vals := append([]int64(nil), t.stack[base:]...)
		t.stack = t.stack[:base]
		return vals
	}
	for _, c := range sel.Cases {
		if !m.selectReady(c) {
			continue
		}
		ch := m.chans[c.Chan]
		vals := popSendVals()
		t.parked = false
		t.blockedOn = ""
		m.setStatus(tid, Runnable)
		if c.Send {
			val := vals[c.SendIdx]
			if ch.closed {
				m.faultSendClosed(tid, c.Chan, val)
				return Progressed, nil
			}
			t.pc = c.Target
			if ch.cap > 0 {
				ch.buf = append(ch.buf, val)
				m.emitSend(tid, c.Chan, val, ch.cap, -1)
				m.wakeChan(c.Chan)
			} else {
				rid := m.parkedPlain(BlockedRecv, c.Chan)
				m.completeRecv(rid, val)
				m.emitSend(tid, c.Chan, val, 0, rid)
				m.emitRecv(rid, c.Chan, val)
			}
			return Progressed, nil
		}
		t.pc = c.Target
		switch {
		case len(ch.buf) > 0:
			val := ch.buf[0]
			ch.buf = ch.buf[1:]
			t.stack = append(t.stack, val)
			m.emitRecv(tid, c.Chan, val)
			m.wakeChan(c.Chan)
		case ch.cap == 0 && m.parkedPlain(BlockedSend, c.Chan) >= 0:
			sid := m.parkedPlain(BlockedSend, c.Chan)
			val := m.completeSend(sid)
			t.stack = append(t.stack, val)
			m.emitSend(sid, c.Chan, val, 0, tid)
			m.emitRecv(tid, c.Chan, val)
		default: // closed and drained
			t.stack = append(t.stack, 0)
			m.events++
			if m.chooks != nil {
				m.chooks.ChanRecvClosed(tid, c.Chan)
			}
		}
		return Progressed, nil
	}
	if sel.Default >= 0 {
		popSendVals()
		t.pc = sel.Default
		t.parked = false
		m.events++
		m.hooks.Internal(tid)
		return Progressed, nil
	}
	first := !t.parked
	t.parked = true
	m.setStatus(tid, BlockedSelect)
	chans := make([]string, 0, len(sel.Cases))
	seen := map[string]bool{}
	for _, c := range sel.Cases {
		if !seen[c.Chan] {
			seen[c.Chan] = true
			chans = append(chans, c.Chan)
		}
	}
	sort.Strings(chans)
	t.blockedOn = strings.Join(chans, ",")
	if first {
		m.emitChanBlock(tid, sel.Cases[0].Chan, selectAux(sel))
	}
	return Blocked, nil
}
