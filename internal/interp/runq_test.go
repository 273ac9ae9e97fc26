package interp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gompax/internal/interp"
	"gompax/internal/mtl"
	"gompax/internal/progs"
	"gompax/internal/sched"
)

// scanSchedule is the full-scan oracle for the machine's maintained
// scheduling state: the runnable ids in ascending order, whether every
// thread is done, and whether live threads are all blocked.
func scanSchedule(m *interp.Machine) (runnable []int, done, deadlocked bool) {
	done = true
	blocked := false
	for i := 0; i < m.Threads(); i++ {
		switch m.Status(i) {
		case interp.Runnable:
			runnable = append(runnable, i)
			done = false
		case interp.Done:
		default:
			blocked = true
			done = false
		}
	}
	return runnable, done, len(runnable) == 0 && blocked
}

func checkSchedule(t *testing.T, m *interp.Machine, where string) {
	t.Helper()
	want, done, deadlocked := scanSchedule(m)
	if got := m.Runnable(); !slices.Equal(got, want) {
		t.Fatalf("%s: Runnable() = %v, scan %v", where, got, want)
	}
	if got := m.Done(); got != done {
		t.Fatalf("%s: Done() = %v, scan %v", where, got, done)
	}
	if got := m.Deadlocked(); got != deadlocked {
		t.Fatalf("%s: Deadlocked() = %v, scan %v", where, got, deadlocked)
	}
}

// genSyncProgram generates a small loop-free MTL program that mixes
// every status transition of the machine: mutexes, wait/notify,
// buffered and unbuffered channels (send, recv, close, select with and
// without default) and task spawns. Nothing keeps it well-behaved:
// runs may deadlock or stop on a runtime error (double close, halting
// with a held mutex), which are status transitions too.
func genSyncProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("shared x = 0, y = 0;\nmutex m0, m1;\ncond c0, c1;\nchan u0, u1, b0 = 1, b1 = 2;\n\n")
	chans := []string{"u0", "u1", "b0", "b1"}
	stmt := func(spawn bool) string {
		ch := chans[rng.Intn(len(chans))]
		ch2 := chans[rng.Intn(len(chans))]
		switch k := rng.Intn(13); {
		case k == 0:
			return "x = x + 1;"
		case k == 1:
			j := rng.Intn(2)
			return fmt.Sprintf("lock(m%d); y = y + 1; unlock(m%d);", j, j)
		case k == 2:
			return fmt.Sprintf("lock(m%d);", rng.Intn(2))
		case k == 3:
			return fmt.Sprintf("wait(c%d);", rng.Intn(2))
		case k == 4:
			return fmt.Sprintf("notify(c%d);", rng.Intn(2))
		case k == 5:
			return fmt.Sprintf("notifyall(c%d);", rng.Intn(2))
		case k == 6:
			return fmt.Sprintf("send(%s, %d);", ch, rng.Intn(9))
		case k == 7:
			return fmt.Sprintf("x = recv(%s);", ch)
		case k == 8:
			return fmt.Sprintf("close(%s);", ch)
		case k == 9:
			return fmt.Sprintf("select { case y = recv(%s) { x = 1; } case send(%s, 5) { x = 2; } }", ch, ch2)
		case k == 10:
			return fmt.Sprintf("select { case y = recv(%s) { x = 3; } default { skip; } }", ch)
		case k == 11 && spawn:
			return fmt.Sprintf("spawn k%d;", rng.Intn(2))
		default:
			return "skip;"
		}
	}
	body := func(n int, spawn bool) string {
		var s []string
		for i := 0; i < n; i++ {
			s = append(s, "    "+stmt(spawn))
		}
		return strings.Join(s, "\n")
	}
	for k := 0; k < 2; k++ {
		fmt.Fprintf(&b, "task k%d {\n%s\n}\n\n", k, body(1+rng.Intn(3), false))
	}
	threads := 2 + rng.Intn(2)
	for i := 0; i < threads; i++ {
		fmt.Fprintf(&b, "thread t%d {\n%s\n}\n\n", i, body(2+rng.Intn(4), true))
	}
	return b.String()
}

// checkingScheduler checks the machine's scheduling state against the
// full-scan oracle each time sched.Run asks for the next thread — that
// is, after every step — and then schedules at random.
type checkingScheduler struct {
	t    *testing.T
	m    *interp.Machine
	rng  *rand.Rand
	step int
}

func (c *checkingScheduler) Next(runnable []int) int {
	c.t.Helper()
	checkSchedule(c.t, c.m, fmt.Sprintf("run step %d", c.step))
	if !slices.Equal(runnable, c.m.Runnable()) {
		c.t.Fatalf("run step %d: scheduler saw %v, machine %v", c.step, runnable, c.m.Runnable())
	}
	c.step++
	return runnable[c.rng.Intn(len(runnable))]
}

// TestRunnableMatchesScan drives generated programs through sched.Run,
// sched.Explore and a random walk with Snapshot/Restore, and requires
// the maintained Runnable/Done/Deadlocked to equal a full scan of the
// thread statuses after every step and every restore.
func TestRunnableMatchesScan(t *testing.T) {
	const programs = 150
	for p := 0; p < programs; p++ {
		rng := rand.New(rand.NewSource(int64(p)))
		src := genSyncProgram(rng)
		code, err := mtl.Compile(mustParse(t, src))
		if err != nil {
			t.Fatalf("program %d: %v\n%s", p, err, src)
		}

		// sched.Run: checked before every scheduling decision and at
		// the end (completion, deadlock or runtime error).
		for seed := int64(0); seed < 3; seed++ {
			m := interp.NewMachine(code, nil)
			cs := &checkingScheduler{t: t, m: m, rng: rand.New(rand.NewSource(seed))}
			sched.Run(m, cs, 500)
			checkSchedule(t, m, fmt.Sprintf("program %d seed %d: after Run", p, seed))
		}

		// sched.Explore: every leaf state, then the restored root.
		m := interp.NewMachine(code, nil)
		leaves := 0
		sched.Explore(m, 200, 500, func(sched.ExploreResult) bool {
			leaves++
			checkSchedule(t, m, fmt.Sprintf("program %d: explore leaf %d", p, leaves))
			return true
		})
		checkSchedule(t, m, fmt.Sprintf("program %d: after Explore", p))

		// Random walk: step, check, and now and then restore an
		// earlier snapshot (which may predate spawned threads).
		m = interp.NewMachine(code, nil)
		snaps := []interp.Snapshot{m.Snapshot()}
		for step := 0; step < 200; step++ {
			where := fmt.Sprintf("program %d walk step %d", p, step)
			if rng.Intn(8) == 0 {
				m.Restore(snaps[rng.Intn(len(snaps))])
				checkSchedule(t, m, where+" (restore)")
				continue
			}
			runnable := m.Runnable()
			if len(runnable) == 0 {
				m.Restore(snaps[0])
				checkSchedule(t, m, where+" (restart)")
				continue
			}
			if _, err := m.Step(runnable[rng.Intn(len(runnable))]); err != nil {
				checkSchedule(t, m, where+" (error)")
				m.Restore(snaps[0])
				continue
			}
			checkSchedule(t, m, where)
			if rng.Intn(4) == 0 {
				snaps = append(snaps, m.Snapshot())
			}
		}
	}
}

func mustParse(t *testing.T, src string) *mtl.Program {
	t.Helper()
	prog, err := mtl.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return prog
}

// TestStepAllocsZero: a step that leaves every thread's status as it
// was allocates nothing, however many threads the machine has — the
// scheduler step is O(1) in the thread count.
func TestStepAllocsZero(t *testing.T) {
	const threads = 256
	m := interp.NewMachine(mtl.MustCompile(progs.DeepFanIn(threads, 50)), nil)
	next := 0
	step := func() {
		tid := next % threads
		next++
		if kind, err := m.Step(tid); err != nil || kind != interp.Progressed {
			t.Fatalf("step of thread %d: %v %v", tid, kind, err)
		}
		if len(m.Runnable()) != threads || m.Done() {
			t.Fatalf("a thread left the runnable set")
		}
	}
	for i := 0; i < 2*threads; i++ {
		step() // warm up: every thread's operand stack has grown once
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("Step on a %d-thread machine allocates %.1f times, want 0", threads, allocs)
	}
}
