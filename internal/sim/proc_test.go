package sim

import (
	"strings"
	"testing"
)

// TestProcPanicMessage: a panic inside a process surfaces from the Step
// that resumed it, naming the process — on a plain Env and from a World
// shard.
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

	w := NewWorld()
	for i := 0; i < 3; i++ {
		s := w.AddShard()
		if i == 2 {
			s.Spawn("doomed", func(p *Proc) {
				p.Sleep(3 * Microsecond)
				panic("kaboom")
			})
		}
	}
	got = func() (r any) {
		defer func() { r = recover() }()
		defer w.Close()
		w.Run()
		return nil
	}()
	if s, ok := got.(string); !ok || !strings.HasPrefix(s, want) {
		t.Fatalf("World.Run panicked with %v, want %q", got, want)
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
