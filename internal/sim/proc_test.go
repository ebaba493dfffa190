package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// buildProcWorld wires processes onto every shard of w that block on each
// primitive — Sleep, WaitCond, Mutex.Lock, Completion.Wait — across many
// windows. Some are spawned before the run, some from shard events and some
// from control callbacks, so an executor that runs shards on other
// goroutines creates coroutines on one goroutine and resumes them from
// another.
func buildProcWorld(w *World, shards int, log *worldLog) {
	for i := 0; i < shards; i++ {
		i := i
		s := w.AddShard()
		rng := rand.New(rand.NewSource(int64(i + 1)))
		cond := NewCond(s)
		mu := NewMutex(s)
		gate := NewCompletion(s)
		// A ticker broadcasts the shard's condition and posts to control.
		s.Spawn("ticker", func(p *Proc) {
			for k := 0; k < 40; k++ {
				p.Sleep(Time(1+rng.Intn(5)) * Microsecond)
				log.addShard(i, s.Now(), fmt.Sprintf("tick%d waiters=%d", k, len(cond.fns)))
				cond.Broadcast()
				if k == 10 {
					gate.Fire()
				}
				k := k
				w.Post(i, func() {
					log.addCtrl(w.Ctrl().Now(), fmt.Sprintf("post-s%d-k%d", i, k))
					if k%8 == 0 {
						// Control spawns a process on the next shard.
						j := (i + 1) % shards
						next := w.Shard(j)
						next.Spawn("relay", func(p *Proc) {
							p.Sleep(Microsecond)
							log.addShard(j, next.Now(), fmt.Sprintf("relay-s%d-k%d", i, k))
						})
					}
				})
			}
		})
		for n := 0; n < 3; n++ {
			n := n
			hold := Time(1+n) * 700
			s.Spawn("worker", func(p *Proc) {
				p.Wait(gate)
				for k := 0; k < 12; k++ {
					p.WaitCond(cond)
					mu.Lock(p)
					log.addShard(i, s.Now(), fmt.Sprintf("w%d-lock%d", n, k))
					p.Sleep(hold)
					mu.Unlock()
					if k%5 == 4 {
						// A shard event spawns a short-lived helper.
						s.At(s.Now()+300, func() {
							s.Spawn("helper", func(p *Proc) {
								p.Sleep(0)
								log.addShard(i, s.Now(), fmt.Sprintf("helper-w%d-%d", n, k))
							})
						})
					}
				}
			})
		}
	}
}

func runProcWorld(shards int, window Time, parallel bool) []string {
	w := NewWorld()
	w.SetWindow(window)
	w.SetParallel(parallel)
	defer w.Close()
	log := newWorldLog(shards)
	buildProcWorld(w, shards, log)
	w.Run()
	return log.lines()
}

// TestWorldProcsSerialParallelIdentical: processes on the shards of a
// parallel World produce the serial executor's transcript byte for byte,
// for several window sizes.
func TestWorldProcsSerialParallelIdentical(t *testing.T) {
	for _, window := range []Time{2 * Microsecond, 7 * Microsecond, 50 * Microsecond} {
		serial := runProcWorld(4, window, false)
		parallel := runProcWorld(4, window, true)
		if len(serial) < 400 {
			t.Fatalf("window %v: transcript has %d lines, workload too small", window, len(serial))
		}
		if !reflect.DeepEqual(serial, parallel) {
			for i := range serial {
				if i >= len(parallel) || serial[i] != parallel[i] {
					t.Fatalf("window %v: transcripts diverge at line %d", window, i)
				}
			}
			t.Fatalf("window %v: parallel transcript longer than serial", window)
		}
	}
}

// TestProcPanicMessage: a panic inside a process surfaces from the Step
// that resumed it, naming the process — on a plain Env and from a shard
// of a serial or parallel World.
func TestProcPanicMessage(t *testing.T) {
	const want = `sim: process "doomed" panicked: kaboom`
	e := NewEnv()
	p := e.Spawn("doomed", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("kaboom")
	})
	if !e.Step() {
		t.Fatal("no start event")
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Step()
		return nil
	}()
	if got != want {
		t.Fatalf("Step panicked with %v, want %q", got, want)
	}
	if !p.done {
		t.Fatal("panicked process not Done")
	}
	if e.Step() {
		t.Fatal("events left after the panicking process ended")
	}

	for _, parallel := range []bool{false, true} {
		w := NewWorld()
		w.SetParallel(parallel)
		for i := 0; i < 3; i++ {
			s := w.AddShard()
			if i == 2 {
				s.Spawn("doomed", func(p *Proc) {
					p.Sleep(3 * Microsecond)
					panic("kaboom")
				})
			}
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			defer w.Close()
			w.Run()
			return nil
		}()
		if s, ok := got.(string); !ok || !strings.HasPrefix(s, want) {
			t.Fatalf("parallel=%v: World.Run panicked with %v, want %q", parallel, got, want)
		}
	}
}

// newSwitchEnv returns an Env whose one process loops on Sleep(0), parked
// in its first sleep, plus the function that ends it.
func newSwitchEnv() (*Env, func()) {
	e := NewEnv()
	stop := false
	e.Spawn("switch", func(p *Proc) {
		for !stop {
			p.Sleep(0)
		}
	})
	e.Step()
	return e, func() {
		stop = true
		e.Run()
	}
}

// TestProcSwitchAllocFree: a Sleep(0) round trip — event loop to process
// coroutine and back — allocates nothing.
func TestProcSwitchAllocFree(t *testing.T) {
	e, stop := newSwitchEnv()
	defer stop()
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("Sleep(0) round trip allocates %.2f, want 0", avg)
	}
}

// BenchmarkProcSwitch measures one Sleep(0) round trip: the wakeup event
// switches to the process, which reschedules itself and switches back.
func BenchmarkProcSwitch(b *testing.B) {
	e, stop := newSwitchEnv()
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestProcWorkersReused: a finished process hands its coroutine to the next
// one spawned, so the idle pool never grows past the most processes alive
// at once.
func TestProcWorkersReused(t *testing.T) {
	idleBefore := len(idleWorkers.ws)
	e := NewEnv()
	ran := 0
	for i := 0; i < 2000; i++ {
		e.Spawn("short", func(p *Proc) {
			p.Sleep(Time(1 + i%5))
			ran++
		})
		if i%4 == 3 {
			e.Run() // at most four processes alive at once
		}
	}
	e.Run()
	if ran != 2000 {
		t.Fatalf("%d of 2000 processes ran", ran)
	}
	if n := len(idleWorkers.ws); n > max(idleBefore, 4) {
		t.Fatalf("idle pool holds %d workers, want at most %d", n, max(idleBefore, 4))
	}
}
