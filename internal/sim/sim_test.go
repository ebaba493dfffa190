package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEnv()
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events out of insertion order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEnv()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v, want all 4", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := NewEnv()
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var marks []Time
	e.Spawn("sleeper", func(p *Proc) {
		marks = append(marks, e.Now())
		p.Sleep(100)
		marks = append(marks, e.Now())
		p.Sleep(50)
		marks = append(marks, e.Now())
	})
	e.Run()
	want := []Time{0, 100, 150}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcDone(t *testing.T) {
	e := NewEnv()
	p := e.Spawn("p", func(p *Proc) { p.Sleep(5) })
	if p.done {
		t.Fatal("Done before running")
	}
	e.Run()
	if !p.done {
		t.Fatal("not Done after Run")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate to Run")
		}
	}()
	e.Run()
}

func TestCompletion(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	var wokeAt Time = -1
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(c)
		wokeAt = e.Now()
	})
	e.After(42, c.Fire)
	e.Run()
	if wokeAt != 42 {
		t.Fatalf("woke at %v, want 42", wokeAt)
	}
	if !c.fired {
		t.Fatal("completion not marked fired")
	}
	// Waiting on an already-fired completion returns immediately.
	var after Time = -1
	e.Spawn("late", func(p *Proc) {
		p.Wait(c)
		after = e.Now()
	})
	e.Run()
	if after != 42 {
		t.Fatalf("late waiter woke at %v, want 42", after)
	}
}

func TestCompletionFireIdempotent(t *testing.T) {
	e := NewEnv()
	c := NewCompletion(e)
	n := 0
	c.OnFire(func() { n++ })
	c.Fire()
	c.Fire()
	e.Run()
	if n != 1 {
		t.Fatalf("callback ran %d times, want 1", n)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEnv()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.WaitCond(c)
			woken++
		})
	}
	e.After(10, c.Broadcast)
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	// New waiters block until the next broadcast, not the previous one.
	stale := false
	e.Spawn("late", func(p *Proc) {
		p.WaitCond(c)
		stale = true
	})
	e.Run()
	if stale {
		t.Fatal("waiter woken by a past broadcast")
	}
	c.Broadcast()
	e.Run()
	if !stale {
		t.Fatal("waiter not woken by new broadcast")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.After(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Steps counts exactly the events that fire.
func TestStepsCountProperty(t *testing.T) {
	f := func(n uint8) bool {
		e := NewEnv()
		for i := 0; i < int(n); i++ {
			e.After(Time(i), func() {})
		}
		e.Run()
		return e.Steps() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
