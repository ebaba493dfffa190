package sim

import "testing"

func TestMutexSerializesFIFO(t *testing.T) {
	env := NewEnv()
	m := NewMutex(env)
	var order []string
	worker := func(name string, startAt, hold Time) {
		env.At(startAt, func() {
			env.Spawn(name, func(p *Proc) {
				m.Lock(p)
				order = append(order, name+"+")
				p.Sleep(hold)
				order = append(order, name+"-")
				m.Unlock()
			})
		})
	}
	worker("a", 0, 100)
	worker("b", 10, 100) // arrives while a holds
	worker("c", 20, 100) // arrives while a holds, after b
	env.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (FIFO violated)", order, want)
		}
	}
	if m.held {
		t.Fatal("mutex still held after all workers")
	}
}

func TestMutexUncontended(t *testing.T) {
	env := NewEnv()
	m := NewMutex(env)
	var at Time = -1
	env.Spawn("solo", func(p *Proc) {
		m.Lock(p)
		at = env.Now()
		m.Unlock()
	})
	env.Run()
	if at != 0 {
		t.Fatalf("uncontended lock delayed to %v", at)
	}
}

func TestMutexWaiters(t *testing.T) {
	env := NewEnv()
	m := NewMutex(env)
	env.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(100)
		if len(m.waiters)-m.first != 2 {
			t.Errorf("%d waiters, want 2", len(m.waiters)-m.first)
		}
		m.Unlock()
	})
	for i := 0; i < 2; i++ {
		env.Spawn("waiter", func(p *Proc) {
			p.Sleep(1)
			m.Lock(p)
			m.Unlock()
		})
	}
	env.Run()
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	env := NewEnv()
	m := NewMutex(env)
	defer func() {
		if recover() == nil {
			t.Error("unlock of unheld mutex did not panic")
		}
	}()
	m.Unlock()
}

// TestYield: Sleep(0) yields, letting the other events due now run first.
func TestYield(t *testing.T) {
	env := NewEnv()
	var order []int
	env.Spawn("a", func(p *Proc) {
		order = append(order, 1)
		p.Sleep(0)
		order = append(order, 3)
	})
	env.Spawn("b", func(p *Proc) {
		order = append(order, 2)
	})
	env.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestRunFor(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.After(10, func() { fired++ })
	env.After(30, func() { fired++ })
	env.RunFor(20)
	if fired != 1 || env.Now() != 20 {
		t.Fatalf("fired=%d now=%v", fired, env.Now())
	}
	env.RunFor(20)
	if fired != 2 || env.Now() != 40 {
		t.Fatalf("fired=%d now=%v", fired, env.Now())
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv()
	env.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
		}()
		p.Sleep(-1)
	})
	env.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	env.After(-5, func() {})
}
