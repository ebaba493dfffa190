package vram

import (
	"testing"
	"testing/quick"

	"paella/internal/sim"
)

// TestAllocatorProperty drives the manager with a random operation
// sequence (mirroring internal/gpu/property_test.go) and checks the
// allocator invariants after every step:
//
//   - allocation never exceeds capacity,
//   - blocks are never double-freed (UsedBlocks always equals the sum of
//     blocks held by loading/resident models — CheckInvariants),
//   - eviction only ever removes unpinned resident models.
func TestAllocatorProperty(t *testing.T) {
	f := func(capRaw uint8, sizesRaw []uint8, opsRaw []uint8) bool {
		capBlocks := int(capRaw)%32 + 4
		m, err := NewManager(Config{
			CapacityBytes: int64(capBlocks) * MiB,
			BlockBytes:    MiB,
		})
		if err != nil {
			return false
		}
		if len(sizesRaw) == 0 {
			sizesRaw = []uint8{3}
		}
		if len(sizesRaw) > 12 {
			sizesRaw = sizesRaw[:12]
		}
		// Register models sized 0..capacity blocks; oversized ones must be
		// rejected without corrupting state.
		names := make([]string, 0, len(sizesRaw))
		pins := map[string]int{}
		for i, raw := range sizesRaw {
			name := string(rune('a' + i))
			bytes := int64(raw%40) * MiB / 2 // 0..19.5 MiB in half-MiB steps
			err := m.Register(name, bytes)
			needBlocks := int((bytes + MiB - 1) / MiB)
			if needBlocks > capBlocks {
				if err == nil {
					return false // oversized model accepted
				}
				continue
			}
			if err != nil {
				return false
			}
			names = append(names, name)
			pins[name] = 0
		}
		if len(names) == 0 {
			return true
		}
		m.onEvict = func(name string) {
			if pins[name] != 0 {
				t.Fatalf("evicted pinned model %q (%d pins)", name, pins[name])
			}
		}
		now := sim.Time(0)
		for _, op := range opsRaw {
			now++
			name := names[int(op>>3)%len(names)]
			switch op % 8 {
			case 0, 1: // pin
				m.Pin(name, now)
				pins[name]++
			case 2: // unpin
				if pins[name] > 0 {
					m.Unpin(name, now)
					pins[name]--
				}
			case 3, 4, 5: // load (begin, and usually finish)
				if m.State(name) == Cold {
					if err := m.BeginLoad(name, now); err != nil {
						if err != ErrNoMemory {
							return false
						}
						break
					}
					if op%8 != 5 {
						m.FinishLoad(name, now)
					}
				} else if m.State(name) == Loading {
					m.FinishLoad(name, now)
				}
			case 6: // use without holding: refreshes the LRU stamp
				m.Pin(name, now)
				m.Unpin(name, now)
			case 7: // explicit eviction attempt (may legitimately fail)
				_ = m.Evict(name)
			}
			m.CheckInvariants()
			if m.UsedBlocks() > m.TotalBlocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
