package sim

import (
	"fmt"
	"testing"
)

// benchNop is the no-op typed callback delivered by the flushPosts
// benchmarks; the work under measurement is the flush, not the callbacks.
var benchNop EventFn = func(any, uint64) {}

// benchmarkFlushPosts measures the barrier's post flush at a given shard
// count: every shard contributes a time-sorted outbox, interleaved in time
// with the others, and flushPosts pushes them shard by shard into the
// control queue, which orders them by (timestamp, push order). The flush is
// one O(1) queue push per post at any shard count.
func benchmarkFlushPosts(b *testing.B, shards, postsPer int) {
	w := NewWorld()
	defer w.Close()
	for i := 0; i < shards; i++ {
		w.AddShard()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		// Refill the outboxes: shard-local timestamps nondecreasing, offset
		// per shard so the outboxes interleave in time, and based at the
		// control clock so the drained control Env can be reused (its arena
		// stays at the high-water mark — the steady-state flush is
		// allocation-free).
		base := w.ctrl.Now()
		for i := range w.posts {
			for j := 0; j < postsPer; j++ {
				w.posts[i] = append(w.posts[i], wpost{at: base + Time(j*shards+i), cb: benchNop})
			}
		}
		b.StartTimer()
		w.flushPosts()
		b.StopTimer()
		w.ctrl.Run() // drain the no-op deliveries, recycling the arena
		b.StartTimer()
	}
}

func BenchmarkFlushPosts(b *testing.B) {
	for _, shards := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkFlushPosts(b, shards, 16)
		})
	}
}

// benchPeriod is BenchmarkWorldWindow's window period: each shard's event
// train starts at a multiple of it, and a control event at every half
// period clamps each window to exactly one train per shard.
const benchPeriod = 50 * Microsecond

// windowBench is one BenchmarkWorldWindow world: per shard, a train of
// per[i] events every benchPeriod, each burning about one simulator
// event's host cost, and one control event per window.
type windowBench struct {
	w    *World
	per  []int
	left []int
	sink uint64
}

// burn is the stand-in for a simulator event's work: n rounds of xorshift
// on x. With the engine's own cost, 100 rounds make an event of about
// 300 ns, near what a simulator event costs.
func burn(x uint64, n int) uint64 {
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// benchEventWork is the burn count of one event.
const benchEventWork = 100

// benchShardEvent runs one event of shard arg's train and schedules the
// next: 1 ns later within the train, or the next train's start.
func benchShardEvent(ctx any, arg uint64) {
	b := ctx.(*windowBench)
	i := int(arg)
	b.sink = burn(b.sink|1, benchEventWork)
	s := b.w.shards[i]
	if b.left[i]--; b.left[i] > 0 {
		s.DoCallAfter(1, benchShardEvent, b, arg)
		return
	}
	b.left[i] = b.per[i]
	s.DoCall((s.now/benchPeriod+1)*benchPeriod, benchShardEvent, b, arg)
}

// benchCtrlEvent is the per-window control event.
func benchCtrlEvent(ctx any, _ uint64) {
	b := ctx.(*windowBench)
	b.sink = burn(b.sink|1, benchEventWork)
	b.w.ctrl.DoCallAfter(benchPeriod, benchCtrlEvent, b, 0)
}

func newWindowBench(per []int) *windowBench {
	w := NewWorld()
	b := &windowBench{w: w, per: per, left: append([]int(nil), per...)}
	for i := range per {
		w.AddShard().DoCall(0, benchShardEvent, b, uint64(i))
	}
	w.ctrl.DoCall(benchPeriod/2, benchCtrlEvent, b, 0)
	return b
}

// BenchmarkWorldWindow measures one World window (ns/op is per window) on
// 4 shards. The "small" shape is autoscale-diurnal's typical window: one
// control event and 52 shard events, 24/16/8/4 per shard; "large" has 500
// events on every shard. It is the baseline a window executor that hands
// shards to other goroutines must beat (DESIGN §8.1).
func BenchmarkWorldWindow(b *testing.B) {
	for _, sh := range []struct {
		name string
		per  []int
	}{{"small", []int{24, 16, 8, 4}}, {"large", []int{500, 500, 500, 500}}} {
		b.Run(sh.name, func(b *testing.B) {
			wb := newWindowBench(sh.per)
			defer wb.w.Close()
			b.ResetTimer()
			for k := range b.N {
				wb.w.stepWindow(Time(k)*benchPeriod + benchPeriod/2)
			}
		})
	}
}
