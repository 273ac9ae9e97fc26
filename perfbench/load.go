package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gompax/internal/serve"
)

// sample is one client session as the client saw it.
type sample struct {
	start   time.Time     // dial
	end     time.Time     // VERDICT read, or the failure
	admit   time.Duration // dial → OK
	run     time.Duration // Hello → Bye flushed: the instrumented run
	lag     time.Duration // Bye flushed → VERDICT read
	session *session
	err     error // REJECT, transport error or a verdict that differs from the reference
}

// finishSession streams an admitted session and reads its verdict,
// checking it against the session's reference. It returns the run
// (Hello → Bye flushed) and verdict-lag (Bye → VERDICT) durations.
func finishSession(cl *serve.Client, s *session) (run, lag time.Duration, err error) {
	t0 := time.Now()
	if err := s.stream(cl.Conn()); err != nil {
		cl.Close()
		return 0, 0, fmt.Errorf("session %d: streaming: %w", s.id, err)
	}
	// Half-close, as gompax -connect does, so the daemon sees EOF
	// right after Bye.
	if cw, ok := cl.Conn().(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	t1 := time.Now()
	v, err := cl.Finish(2 * time.Minute)
	t2 := time.Now()
	if err != nil {
		return 0, 0, fmt.Errorf("session %d: %w", s.id, err)
	}
	if err := s.check(v.Verdict, v.Violations, v.Cuts, v.Degraded); err != nil {
		return 0, 0, err
	}
	return t1.Sub(t0), t2.Sub(t1), nil
}

// driveSession runs one whole client session: Dial, stream, Finish.
func driveSession(addr string, s *session) sample {
	smp := sample{start: time.Now(), session: s}
	cl, err := serve.Dial("tcp", addr, serve.SessionRequest{Spec: s.spec})
	smp.admit = time.Since(smp.start)
	if err == nil {
		smp.run, smp.lag, err = finishSession(cl, s)
	}
	smp.end = time.Now()
	smp.err = err
	return smp
}

// closedLoop drives addr with clients closed-loop clients: each sends
// its next session only after reading the previous one's VERDICT.
// Client c cycles through the pool entries i with i%clients == c, so
// no two clients run the same compiled program at once. After warmup
// it measures for window and returns the sessions that ended inside
// the window; sessions still in flight at its end are completed but
// not returned.
func closedLoop(addr string, pool []*session, clients int, warmup, window time.Duration) (samples []sample, from, to time.Time, err error) {
	if len(pool) == 0 || len(pool)%clients != 0 {
		return nil, from, to, fmt.Errorf("a pool of %d sessions does not split evenly over %d clients", len(pool), clients)
	}
	t0 := time.Now()
	from, to = t0.Add(warmup), t0.Add(warmup+window)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(to); i += clients {
				smp := driveSession(addr, pool[i%len(pool)])
				if !smp.end.Before(from) && !smp.end.After(to) {
					per[c] = append(per[c], smp)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, from, to, nil
}

// maxSlices bounds how many equal time slices the measured window is
// cut into; each end-to-end metric is the median of its per-slice
// values, so a burst of interference from outside moves at most a few
// slices.
const maxSlices = 6

// slice is the correct sessions that ended in one time slice.
type slice struct {
	rate, eventRate   float64 // sessions and relevant messages per second
	session, lag, run dist
}

type slices []slice

// sliceWindow cuts [from, to] into as many equal slices, up to
// maxSlices, as leave every slice enough sessions for its own p95.
func sliceWindow(samples []sample, from, to time.Time) (slices, error) {
	for k := maxSlices; k >= 1; k-- {
		width := to.Sub(from) / time.Duration(k)
		sess, lag, run := make([][]float64, k), make([][]float64, k), make([][]float64, k)
		msgs := make([]int, k)
		for _, s := range samples {
			if s.err != nil {
				continue
			}
			i := int(s.end.Sub(from) / width)
			if i >= k {
				i = k - 1
			}
			sess[i] = append(sess[i], ms(s.end.Sub(s.start)))
			lag[i] = append(lag[i], ms(s.lag))
			run[i] = append(run[i], ms(s.run))
			msgs[i] += len(s.session.msgs)
		}
		out := make(slices, k)
		enough := true
		for i := range out {
			out[i] = slice{
				rate:      float64(len(sess[i])) / width.Seconds(),
				eventRate: float64(msgs[i]) / width.Seconds(),
				session:   summarize(sess[i], 0.95),
				lag:       summarize(lag[i], 0.95),
				run:       summarize(run[i], 0.95),
			}
			enough = enough && out[i].session.TailOK && out[i].lag.TailOK
		}
		if enough {
			return out, nil
		}
		if k == 1 {
			_, err1 := out[0].session.tail("session_p95_ms")
			_, err2 := out[0].lag.tail("verdict_lag_p95_ms")
			return nil, errors.Join(err1, err2)
		}
	}
	panic("unreachable")
}

// median is the median over the slices of one per-slice value.
func (sl slices) median(f func(slice) float64) float64 {
	xs := make([]float64, len(sl))
	for i, s := range sl {
		xs[i] = f(s)
	}
	return median(xs)
}

func (sl slices) rates() []float64 {
	xs := make([]float64, len(sl))
	for i, s := range sl {
		xs[i] = s.rate
	}
	return xs
}
