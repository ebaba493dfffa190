package sim

import (
	"runtime"
	"testing"
	"time"
)

// envMarker is attached to an Env so that a finalizer can observe the
// Env's collection: the Env itself sits in reference cycles (its queued
// wakeups point at processes that point back at it), and the runtime does
// not finalize objects in cycles. It is large enough to stay out of the
// tiny allocator, whose blocks may never be finalized.
type envMarker struct{ _ [32]byte }

// watchFinalized returns a channel that closes once e has been garbage
// collected. It takes e's recorder slot, which nothing in this package
// reads.
func watchFinalized(e *Env) <-chan struct{} {
	gone := make(chan struct{})
	m := new(envMarker)
	runtime.SetFinalizer(m, func(*envMarker) { close(gone) })
	e.SetRecorder(m)
	return gone
}

// collected runs the garbage collector until gone closes, giving up after
// a few seconds.
func collected(gone <-chan struct{}) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-gone:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestUnstartedProcessDoesNotPinEnv: a process takes its coroutine on its
// first resume, so an Env whose processes were spawned but never run is
// collectable once dropped.
func TestUnstartedProcessDoesNotPinEnv(t *testing.T) {
	gone := func() <-chan struct{} {
		e := NewEnv()
		for i := 0; i < 4; i++ {
			e.Spawn("never-run", func(p *Proc) { p.Sleep(Microsecond) })
		}
		return watchFinalized(e)
	}()
	if !collected(gone) {
		t.Fatal("an Env whose processes never ran is still reachable after GC")
	}
}

// TestEnvCloseUnwindsParkedProcesses: Close ends processes parked in
// WaitCond, Completion.Wait, Mutex.Lock and a Sleep past the run's horizon.
// Their defers run, they report Done, their coroutines return to the pool,
// and the Env becomes collectable. A second Close does nothing.
func TestEnvCloseUnwindsParkedProcesses(t *testing.T) {
	idleBefore := len(idleWorkers.ws)
	unwound := 0
	gone := func() <-chan struct{} {
		e := NewEnv()
		cond := NewCond(e)
		c := NewCompletion(e)
		m := NewMutex(e)
		parked := func(block func(p *Proc)) func(p *Proc) {
			return func(p *Proc) {
				defer func() { unwound++ }()
				block(p)
				t.Errorf("process %q resumed after Close", p.Name())
			}
		}
		ps := []*Proc{
			e.Spawn("cond", parked(func(p *Proc) { p.WaitCond(cond) })),
			e.Spawn("completion", parked(func(p *Proc) { p.Wait(c) })),
			e.Spawn("holder", parked(func(p *Proc) { m.Lock(p); p.WaitCond(cond) })),
			e.Spawn("mutex", parked(func(p *Proc) { m.Lock(p) })),
			e.Spawn("sleeper", parked(func(p *Proc) { p.Sleep(Second) })),
		}
		e.RunUntil(Millisecond)
		for _, p := range ps {
			if p.Done() {
				t.Fatalf("process %q finished before Close", p.Name())
			}
		}
		e.Close()
		for _, p := range ps {
			if !p.Done() {
				t.Errorf("process %q not Done after Close", p.Name())
			}
		}
		if unwound != len(ps) {
			t.Fatalf("%d of %d deferred calls ran", unwound, len(ps))
		}
		if n := len(idleWorkers.ws); n < idleBefore+len(ps) {
			t.Errorf("idle pool holds %d workers after Close, want at least %d", n, idleBefore+len(ps))
		}
		e.Close()
		return watchFinalized(e)
	}()
	if unwound != 5 {
		t.Fatalf("second Close ran %d more deferred calls", unwound-5)
	}
	if !collected(gone) {
		t.Fatal("a closed Env is still reachable after GC")
	}
}

// TestEnvClosePanics: a process panic keeps its message, whether the
// process panics while running or from a defer that Close unwinds into,
// and Close refuses a process that recovers the unwind and parks again.
func TestEnvClosePanics(t *testing.T) {
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}

	e := NewEnv()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("doomed", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("kaboom")
	})
	got := recovered(e.Run)
	if want := `sim: process "doomed" panicked: kaboom`; got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
	e.Close()

	e = NewEnv()
	e.Spawn("bad-defer", func(p *Proc) {
		defer panic("boom")
		p.Sleep(Second)
	})
	e.RunUntil(Millisecond)
	got = recovered(e.Close)
	if want := `sim: process "bad-defer" panicked: boom`; got != want {
		t.Fatalf("Close panicked with %v, want %q", got, want)
	}

	e = NewEnv()
	e.Spawn("stubborn", func(p *Proc) {
		defer func() {
			recover()
			p.Sleep(Second)
		}()
		p.Sleep(Second)
	})
	e.RunUntil(Millisecond)
	got = recovered(e.Close)
	if want := `sim: process "stubborn" survived Close`; got != want {
		t.Fatalf("Close panicked with %v, want %q", got, want)
	}
}

// TestWorldCloseUnwindsShards: World.Close ends the processes parked on its
// control Env and on every shard.
func TestWorldCloseUnwindsShards(t *testing.T) {
	w := NewWorld()
	var ps []*Proc
	ps = append(ps, w.Ctrl().Spawn("ctrl", func(p *Proc) { p.Sleep(Second) }))
	for i := 0; i < 3; i++ {
		c := NewCompletion(w.AddShard())
		ps = append(ps, w.Shard(i).Spawn("shard", func(p *Proc) { p.Wait(c) }))
	}
	w.RunUntil(Millisecond)
	w.Close()
	for i, p := range ps {
		if !p.Done() {
			t.Fatalf("process %d (%q) not Done after World.Close", i, p.Name())
		}
	}
	w.Close()
}
