package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// procTranscriptPath holds the transcript of buildProcMix driven by Run on
// one Env and by a three-shard World, recorded with every process wakeup
// going through the event queue. TestProcTranscript requires every
// executor to reproduce it byte for byte.
const procTranscriptPath = "testdata/proc_transcript.golden"

var updateGolden = flag.Bool("update", false, "rewrite testdata transcript goldens")

// buildProcMix spawns processes that block on every primitive — Sleep(0),
// Sleep(d), WaitCond, Mutex.Lock and Completion.Wait — next to plain
// callbacks due at the same instants, logging (time, actor) for each step.
// Between bursts one process often runs alone, which is when a wakeup is
// the very next event.
func buildProcMix(e *Env, seed int64, logf func(who string)) {
	rng := rand.New(rand.NewSource(seed))
	cond := NewCond(e)
	mu := NewMutex(e)
	gate := NewCompletion(e)
	e.Spawn("spinner", func(p *Proc) {
		for k := 0; k < 40; k++ {
			if k%3 == 0 {
				p.Sleep(0)
			} else {
				p.Sleep(Time(1+rng.Intn(4)) * 100)
			}
			logf(fmt.Sprintf("spinner%d", k))
		}
	})
	e.Spawn("long", func(p *Proc) {
		for k := 0; k < 6; k++ {
			p.Sleep(Time(2000 + rng.Intn(4000)))
			logf(fmt.Sprintf("long%d", k))
		}
	})
	e.Spawn("bcast", func(p *Proc) {
		for k := 0; k < 20; k++ {
			p.Sleep(700)
			logf(fmt.Sprintf("bcast%d waiters=%d", k, len(cond.fns)))
			cond.Broadcast()
			if k == 4 {
				gate.Fire()
			}
		}
	})
	for n := 0; n < 3; n++ {
		n := n
		hold := Time(1+n) * 150
		e.Spawn("waiter", func(p *Proc) {
			p.Wait(gate)
			logf(fmt.Sprintf("w%d-gate", n))
			for k := 0; k < 8; k++ {
				p.WaitCond(cond)
				mu.Lock(p)
				logf(fmt.Sprintf("w%d-lock%d", n, k))
				p.Sleep(hold)
				mu.Unlock()
				p.Sleep(0)
			}
		})
	}
	for k := 0; k < 25; k++ {
		k := k
		// Multiples of 100 ns collide with the spinner's and the
		// broadcaster's wakeups.
		e.At(Time(rng.Intn(150))*100, func() { logf(fmt.Sprintf("cb%d", k)) })
	}
	// A late lone sleeper: long after everything else has finished, its
	// wakeups are always the next event.
	e.At(40000, func() {
		e.Spawn("lone", func(p *Proc) {
			for k := 0; k < 50; k++ {
				p.Sleep(Time(1 + k%7))
			}
			logf("lone-done")
		})
	})
}

// procMixEnv runs buildProcMix on one Env, either with Run or with
// RunUntil slices of irregular length, and returns its transcript.
func procMixEnv(slices bool) string {
	e := NewEnv()
	var b strings.Builder
	buildProcMix(e, 1, func(who string) { fmt.Fprintf(&b, "%d %s\n", int64(e.Now()), who) })
	if slices {
		rng := rand.New(rand.NewSource(9))
		for e.Pending() > 0 {
			switch rng.Intn(4) {
			case 0:
				e.RunUntil(e.Now()) // an empty-length slice
			case 1:
				e.RunFor(Time(1 + rng.Intn(20)))
			default:
				e.RunFor(Time(rng.Intn(3000)))
			}
		}
	} else {
		e.Run()
	}
	fmt.Fprintf(&b, "steps %d\n", e.Steps())
	return b.String()
}

// procMixWorld runs buildProcMix on each of three World shards.
func procMixWorld() string {
	w := NewWorld()
	w.SetWindow(900)
	defer w.Close()
	log := newWorldLog(3)
	for i := 0; i < 3; i++ {
		i := i
		s := w.AddShard()
		buildProcMix(s, int64(10+i), func(who string) { log.addShard(i, s.Now(), who) })
	}
	w.Run()
	var b strings.Builder
	for _, l := range log.lines() {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "shard%d steps %d\n", i, w.Shard(i).Steps())
	}
	return b.String()
}

// TestProcTranscript: the process mix gives one transcript, step counts
// included, whether an Env runs it with Run or with RunUntil slices; the
// same mix on three World shards is pinned beside it.
func TestProcTranscript(t *testing.T) {
	run := procMixEnv(false)
	world := procMixWorld()
	got := "== env\n" + run + "== world\n" + world
	if *updateGolden {
		if err := os.WriteFile(procTranscriptPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(procTranscriptPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got string }{
		{"env Run", got},
		{"env RunUntil slices", "== env\n" + procMixEnv(true) + "== world\n" + world},
	} {
		if c.got == string(want) {
			continue
		}
		gl, wl := strings.Split(c.got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: transcript diverges at line %d:\n got: %s\nwant: %s", c.name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: transcript length %d lines, want %d", c.name, len(gl), len(wl))
	}
}

// TestSleepPastBoundParks: RunUntil never runs a process past its bound.
// A wakeup due after the bound stays queued, and the clock stops exactly
// at the bound.
func TestSleepPastBoundParks(t *testing.T) {
	e := NewEnv()
	var wakes []Time
	e.Spawn("p", func(p *Proc) {
		for k := 0; k < 200; k++ {
			p.Sleep(10)
			wakes = append(wakes, e.Now())
		}
	})
	e.RunUntil(1005)
	if e.Now() != 1005 {
		t.Fatalf("Now() = %v after RunUntil(1005)", e.Now())
	}
	if len(wakes) != 100 || wakes[99] != 1000 {
		t.Fatalf("%d wakeups, last at %v; want 100, last at 1000", len(wakes), wakes[len(wakes)-1])
	}
	if at, ok := e.NextEventTime(); !ok || at != 1010 || e.Pending() != 1 {
		t.Fatalf("next event %v (%v), %d pending; want the wakeup at 1010 parked", at, ok, e.Pending())
	}
	e.RunUntil(1010)
	if e.Now() != 1010 || len(wakes) != 101 {
		t.Fatalf("at %v with %d wakeups; want 1010 with 101", e.Now(), len(wakes))
	}
	// 101 wakeups plus the spawn.
	if e.Steps() != 102 {
		t.Fatalf("Steps() = %d, want 102", e.Steps())
	}
}

// TestBareStepNeverElides: outside Run and RunUntil, each Step runs
// exactly one event, so a process sleeping in a loop advances one
// iteration per Step.
func TestBareStepNeverElides(t *testing.T) {
	e := NewEnv()
	n := 0
	e.Spawn("p", func(p *Proc) {
		for {
			n++
			p.Sleep(10)
		}
	})
	for i := 1; i <= 50; i++ {
		if !e.Step() {
			t.Fatal("no event pending")
		}
		if n != i || e.Now() != Time(10*(i-1)) || e.Steps() != uint64(i) || e.Pending() != 1 {
			t.Fatalf("step %d: %d iterations at %v, %d steps, %d pending", i, n, e.Now(), e.Steps(), e.Pending())
		}
	}
}

// TestRunUntilSlicesMatchRun: a lone sleeper reaches the same state, step
// count included, whether driven by one Run or by many RunUntil slices.
func TestRunUntilSlicesMatchRun(t *testing.T) {
	trace := func(drive func(e *Env)) []Time {
		e := NewEnv()
		var at []Time
		e.Spawn("p", func(p *Proc) {
			for k := 0; k < 200; k++ {
				p.Sleep(Time(k % 5))
				at = append(at, e.Now())
			}
		})
		drive(e)
		return append(at, Time(e.Steps()))
	}
	run := trace(func(e *Env) { e.Run() })
	sliced := trace(func(e *Env) {
		for e.Pending() > 0 {
			e.RunFor(7)
		}
	})
	if !reflect.DeepEqual(run, sliced) {
		t.Fatalf("sliced run differs from Run:\n%v\n%v", sliced, run)
	}
}

// newLoneSleeper returns an Env whose only actor is a process sleeping 10 ns
// in an endless loop, already parked on its first wakeup.
func newLoneSleeper() *Env {
	e := NewEnv()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	e.RunUntil(0)
	return e
}

// TestSleepElided: a process sleeping alone under RunUntil touches the
// queue once per slice (the wakeup parked at the bound); every other
// wakeup runs in place, counts as a step, and allocates nothing.
func TestSleepElided(t *testing.T) {
	e := newLoneSleeper()
	seq, steps := e.seq, e.Steps()
	if avg := testing.AllocsPerRun(100, func() { e.RunFor(1000) }); avg != 0 {
		t.Fatalf("a slice of elided wakeups allocates %.2f, want 0", avg)
	}
	// AllocsPerRun makes one warm-up run: 101 slices of 100 wakeups.
	if e.seq-seq != 101 || e.Steps()-steps != 101*100 {
		t.Fatalf("%d events queued for %d steps; want 101 for 10100", e.seq-seq, e.Steps()-steps)
	}
}

// BenchmarkSleepElided measures one in-place self-wakeup: a lone process
// sleeping in a loop under RunFor.
func BenchmarkSleepElided(b *testing.B) {
	e := newLoneSleeper()
	b.ReportAllocs()
	b.ResetTimer()
	e.RunFor(Time(b.N) * 10)
}

// TestCallbackActorMatchesProcess: an actor written as callbacks, charging
// itself time with AdvanceInPlace or a scheduled resume and waiting with
// Cond.OnBroadcast, runs the same schedule as a process doing Sleep and
// WaitCond (the core dispatcher loop moved from the one to the other): the same (time, steps) transcript, with a broadcaster and
// plain callbacks interleaved, under Run and under RunUntil slices.
func TestCallbackActorMatchesProcess(t *testing.T) {
	const rounds = 60
	cost := func(k int) Time { return Time(k%4) * 50 } // zero, or a charge
	run := func(asProc, slices bool) string {
		e := NewEnv()
		var b strings.Builder
		logf := func(what string, k int) { fmt.Fprintf(&b, "%d %d %s%d\n", int64(e.Now()), e.Steps(), what, k) }
		cond := NewCond(e)
		if asProc {
			e.Spawn("actor", func(p *Proc) {
				for k := 0; k < rounds; k++ {
					if c := cost(k); c > 0 {
						p.Sleep(c)
					}
					logf("ran", k)
					if k%3 == 0 {
						p.WaitCond(cond)
						logf("woke", k)
					}
				}
			})
		} else {
			// phase 0 charges round k, 1 runs it, 2 has woken from its wait.
			k, phase := 0, 0
			var step func()
			step = func() {
				for k < rounds {
					switch phase {
					case 0:
						phase = 1
						if c := cost(k); c > 0 && !e.AdvanceInPlace(c) {
							e.After(c, step)
							return
						}
					case 1:
						logf("ran", k)
						if k%3 == 0 {
							phase = 2
							cond.OnBroadcast(step)
							return
						}
						k, phase = k+1, 0
					case 2:
						logf("woke", k)
						k, phase = k+1, 0
					}
				}
			}
			e.After(0, step)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 40; i++ {
			i := i
			at := Time(rng.Intn(120)) * 25
			e.At(at, func() { logf("bcast", i); cond.Broadcast() })
			e.At(at+Time(rng.Intn(4))*50, func() { logf("cb", i) })
		}
		if slices {
			for e.Pending() > 0 {
				e.RunFor(Time(rng.Intn(300)))
			}
		} else {
			e.Run()
		}
		fmt.Fprintf(&b, "steps %d\n", e.Steps())
		return b.String()
	}
	want := run(true, false)
	for _, c := range []struct {
		name          string
		asProc, slice bool
	}{{"process, RunUntil slices", true, true}, {"callbacks, Run", false, false}, {"callbacks, RunUntil slices", false, true}} {
		if got := run(c.asProc, c.slice); got != want {
			t.Errorf("%s: transcript differs from the process under Run:\n%s\nwant:\n%s", c.name, got, want)
		}
	}
}
