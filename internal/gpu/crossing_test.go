package gpu

import (
	"math/rand"
	"testing"

	"paella/internal/channel"
	"paella/internal/sim"
)

// crossingWave is one device event's share of a launch in one direction:
// the (SM, blocks) pairs placed or completed together.
type crossingWave struct {
	t   channel.NotifType
	sms []smPlacement
}

// crossingLoad draws one launch and a sequence of waves that place and
// complete all of its blocks: a notification group of 1–16, a grid of 1–300 blocks, each
// wave's blocks split over 1–8 SMs in random shares, and the placement and
// completion waves interleaved at random.
func crossingLoad(rng *rand.Rand) (agg, blocks int, waves []crossingWave) {
	agg, blocks = 1+rng.Intn(16), 1+rng.Intn(300)
	split := func(t channel.NotifType) []crossingWave {
		var out []crossingWave
		for left := blocks; left > 0; {
			w := crossingWave{t: t}
			for n, k := min(left, 1+rng.Intn(2*agg+8)), 1+rng.Intn(8); n > 0; k-- {
				share := n
				if k > 1 {
					share = 1 + rng.Intn(n)
				}
				w.sms = append(w.sms, smPlacement{sm: rng.Intn(64), n: share})
				n -= share
				left -= share
			}
			out = append(out, w)
		}
		return out
	}
	placed, completed := split(channel.Placement), split(channel.Completion)
	for len(placed)+len(completed) > 0 {
		if len(completed) == 0 || len(placed) > 0 && rng.Intn(2) == 0 {
			waves, placed = append(waves, placed[0]), placed[1:]
		} else {
			waves, completed = append(waves, completed[0]), completed[1:]
		}
	}
	return agg, blocks, waves
}

// crossingRun feeds the waves, one event each, to a fresh device through
// emit, and returns its transcript: every notifQ record as it is
// delivered, both counters after every wave, and the final Stats. When
// faults is set, a hook seeded by it drops or duplicates records at random.
func crossingRun(agg, blocks int, waves []crossingWave, faults int64,
	emit func(d *Device, l *Launch, w crossingWave)) string {
	env := sim.NewEnv()
	q := channel.NewNotifQueue(1 << 12)
	d := NewDevice(env, waveConfig(64, 16, 1, sim.Microsecond), q)
	if faults != 0 {
		frng := rand.New(rand.NewSource(faults))
		d.SetNotifFault(func(channel.Notification) channel.NotifVerdict {
			return channel.NotifVerdict(frng.Intn(3))
		})
	}
	tr := &transcript{env: env}
	buf := make([]channel.Notification, 256)
	d.OnNotifPosted(func() {
		for n := q.Poll(buf); n > 0; n = q.Poll(buf) {
			for _, r := range buf[:n] {
				tr.logf("notif %v", r)
			}
		}
	})
	l := &Launch{Spec: &KernelSpec{Name: "k", Blocks: blocks}, KernelID: 7, NotifGroup: agg}
	l.placed.next = min(agg, blocks)
	l.completed.next = l.placed.next
	for i, w := range waves {
		env.At(sim.Time(i)*sim.Microsecond/2, func() {
			emit(d, l, w)
			tr.logf("placed %+v completed %+v", l.placed, l.completed)
		})
	}
	env.Run()
	tr.logf("stats %+v", d.Stats())
	return tr.b.String()
}

// TestNotifyMatchesEmitNotifsRandom is the reference for the crossing
// shortcut (DESIGN.md §15.7). For random launches and waves, with and
// without a fault hook, it calls emitNotifs on every SM of every wave, and
// requires the same transcript from notify on every SM and from what
// placeBlocks and completeWave do: a wave that reaches no boundary only
// counts its blocks, and any other wave calls notify SM by SM.
func TestNotifyMatchesEmitNotifsRandom(t *testing.T) {
	counter := func(l *Launch, t channel.NotifType) *notifCount {
		if t == channel.Completion {
			return &l.completed
		}
		return &l.placed
	}
	perSM := func(d *Device, l *Launch, w crossingWave) {
		for _, pl := range w.sms {
			d.notify(l, w.t, counter(l, w.t), pl.sm, pl.n)
		}
	}
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 300; trial++ {
		agg, blocks, waves := crossingLoad(rng)
		faults := int64(0)
		if trial%2 == 1 {
			faults = rng.Int63() | 1
		}
		want := crossingRun(agg, blocks, waves, faults, func(d *Device, l *Launch, w crossingWave) {
			for _, pl := range w.sms {
				d.emitNotifs(l, w.t, counter(l, w.t), uint8(pl.sm), pl.n)
			}
		})
		if got := crossingRun(agg, blocks, waves, faults, perSM); got != want {
			t.Fatalf("trial %d (group %d, %d blocks): notify on every SM\n%s\nemitNotifs on every SM\n%s", trial, agg, blocks, got, want)
		}
		got := crossingRun(agg, blocks, waves, faults, func(d *Device, l *Launch, w crossingWave) {
			c, total := counter(l, w.t), 0
			for _, pl := range w.sms {
				total += pl.n
			}
			if c.count+total < c.next {
				c.count += total
				return
			}
			perSM(d, l, w)
		})
		if got != want {
			t.Fatalf("trial %d (group %d, %d blocks): the wave shortcut\n%s\nemitNotifs on every SM\n%s", trial, agg, blocks, got, want)
		}
	}
}
