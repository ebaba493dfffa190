package vram

import (
	"testing"

	"paella/internal/sim"
)

// BenchmarkVRAMReserveRelease times one KV-page reservation and its release.
func BenchmarkVRAMReserveRelease(b *testing.B) {
	m := MustNewManager(Config{CapacityBytes: 1 << 30})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i)
		if err := m.ReserveKV(4, now); err != nil {
			b.Fatal(err)
		}
		m.ReleaseKV(4, now)
	}
}

// BenchmarkVRAMLoadEvict times one cold model's weight load and eviction.
func BenchmarkVRAMLoadEvict(b *testing.B) {
	m := MustNewManager(Config{CapacityBytes: 1 << 30})
	if err := m.Register("m", 64<<20); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i)
		if err := m.BeginLoad("m", now); err != nil {
			b.Fatal(err)
		}
		m.FinishLoad("m", now)
		if err := m.Evict("m"); err != nil {
			b.Fatal(err)
		}
	}
}
