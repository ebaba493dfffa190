package sim

import (
	"fmt"
	"testing"
)

// orderModel is the reference FuzzEnvEventOrder checks an Env against:
// every scheduled event, by due time and schedule order. Each firing must
// be the model's earliest pending (at, ord) and must see the clock at its
// due time. A mismatch is recorded, not raised, because events may fire on
// a process's coroutine.
type orderModel struct {
	e       *Env
	pending []orderEv
	ord     uint64
	fired   uint64
	bad     string
}

type orderEv struct {
	at  Time
	ord uint64
}

// expect registers an event due d from now, to be scheduled next, and
// returns its id (its schedule order).
func (m *orderModel) expect(d Time) uint64 {
	m.ord++
	m.pending = append(m.pending, orderEv{at: m.e.Now() + d, ord: m.ord})
	return m.ord
}

// fire checks that event id is the earliest pending one and retires it.
func (m *orderModel) fire(id uint64) {
	m.fired++
	if m.bad != "" {
		return
	}
	best := 0
	for i, ev := range m.pending {
		if b := m.pending[best]; ev.at < b.at || ev.at == b.at && ev.ord < b.ord {
			best = i
		}
	}
	want := m.pending[best]
	if want.ord != id || want.at != m.e.Now() {
		m.bad = fmt.Sprintf("fired event %d at %d, want event %d due %d", id, m.e.Now(), want.ord, want.at)
		return
	}
	m.pending = append(m.pending[:best], m.pending[best+1:]...)
}

// fuzzDelay maps a script byte onto the delay classes of Env traffic:
// zero, 1 ns, about 1 µs, about 100 µs, and 2^40 ns.
func fuzzDelay(b byte) Time {
	j := Time(b >> 5)
	switch b % 5 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return Microsecond + j
	case 3:
		return 100*Microsecond + j*Microsecond
	default:
		return 1 << 40
	}
}

// sched schedules one event due d from now through the API kind selects.
// When it fires, an event with depth > 0 schedules a child, due
// fuzzDelay(child) later, from inside its callback.
func (m *orderModel) sched(kind byte, d Time, child byte, depth uint64) {
	id := m.expect(d)
	switch kind % 3 {
	case 0:
		m.e.At(m.e.Now()+d, func() { m.onFire(id, child, depth) })
	case 1:
		m.e.After(d, func() { m.onFire(id, child, depth) })
	default:
		m.e.DoCallAfter(d, fuzzFire, m, id<<16|depth<<8|uint64(child))
	}
}

// fuzzFire is sched's typed callback: arg packs id<<16 | depth<<8 | child.
func fuzzFire(ctx any, arg uint64) {
	ctx.(*orderModel).onFire(arg>>16, byte(arg), arg>>8&0xff)
}

// onFire checks event id's firing and schedules its child, if any.
func (m *orderModel) onFire(id uint64, child byte, depth uint64) {
	m.fire(id)
	if depth > 0 {
		m.sched(child, fuzzDelay(child), child*37+11, depth-1)
	}
}

// charger is a callback actor that charges itself time the way the
// dispatcher's step does: each charge runs in place when AdvanceInPlace
// allows it and is scheduled as a wakeup otherwise. Its delays are script
// bytes, so its charges collide with scripted events.
type charger struct {
	m      *orderModel
	script []byte
	k      int
}

// chargerStep is the charger's typed callback: it checks wakeup id's firing,
// then charges through the rest of the script until a charge must wait in
// the queue.
func chargerStep(ctx any, id uint64) {
	c := ctx.(*charger)
	c.m.fire(id)
	for c.k < len(c.script) {
		d := fuzzDelay(c.script[c.k] >> 2)
		c.k++
		id = c.m.expect(d)
		if !c.m.e.AdvanceInPlace(d) {
			c.m.e.DoCallAfter(d, chargerStep, c, id)
			return
		}
		c.m.fire(id)
	}
}

// FuzzEnvEventOrder drives an Env through its public API from a byte
// script — At, After and DoCallAfter at the delay classes of fuzzDelay,
// bursts at one due time, nested scheduling from callbacks, Step, RunUntil
// slices that leave the clock past the last fired event, a sleeping
// process and a callback actor that both take AdvanceInPlace where they
// can — and requires every event to fire in (due time, schedule order), as
// orderModel predicts.
func FuzzEnvEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 4, 6})
	f.Add([]byte{1, 8, 9, 10, 12, 3, 14, 0})
	f.Add([]byte{3, 0x23, 0x43, 5, 0x63, 0x0c, 6, 6, 6})
	f.Add([]byte{1, 0x11, 0x21, 0x2a, 0x14, 0x22, 0x05, 0x09, 0x31, 0x46, 0x12})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		e := NewEnv()
		defer e.Close()
		m := &orderModel{e: e}
		if len(script) > 0 && script[0]&1 == 1 {
			// The sleeper's delays are the script's own bytes, so its
			// wakeups collide with scripted events.
			n := min(len(script), 32)
			start := m.expect(0)
			e.Spawn("sleeper", func(p *Proc) {
				m.fire(start)
				for k := 0; k < n; k++ {
					d := fuzzDelay(script[k] >> 1)
					id := m.expect(d)
					p.Sleep(d)
					m.fire(id)
				}
			})
		}
		if len(script) > 0 && script[0]&2 == 2 {
			c := &charger{m: m, script: script[:min(len(script), 32)]}
			e.DoCallAfter(0, chargerStep, c, m.expect(0))
		}
		for i, b := range script {
			next := byte(0)
			if i+1 < len(script) {
				next = script[i+1]
			}
			switch b & 7 {
			case 0, 1, 2:
				m.sched(b, fuzzDelay(b>>3), next, uint64(next&3))
			case 3: // a burst at one due time
				d := fuzzDelay(b >> 3)
				for k := 0; k <= int(next&7); k++ {
					m.sched(byte(k), d, next, uint64(k&1))
				}
			case 4, 5:
				e.RunUntil(e.Now() + fuzzDelay(b>>3))
			case 6:
				e.Step()
			case 7:
				e.RunFor(0)
			}
		}
		e.Run()
		if m.bad != "" {
			t.Fatal(m.bad)
		}
		if len(m.pending) != 0 || e.Pending() != 0 {
			t.Fatalf("%d events never fired (Env still holds %d)", len(m.pending), e.Pending())
		}
		if m.fired != e.Steps() {
			t.Fatalf("%d events fired in %d steps", m.fired, e.Steps())
		}
	})
}
