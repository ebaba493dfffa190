package vram

import (
	"errors"
	"testing"

	"paella/internal/sim"
)

const MiB = 1 << 20

func mkManager(t *testing.T, capMiB int64) *Manager {
	t.Helper()
	m, err := NewManager(Config{CapacityBytes: capMiB * MiB})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegisterAndStates(t *testing.T) {
	m := mkManager(t, 64)
	if err := m.Register("a", 10*MiB); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a", 10*MiB); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := m.Register("huge", 128*MiB); err == nil {
		t.Fatal("over-capacity model accepted")
	}
	if got := m.State("a"); got != Cold {
		t.Fatalf("fresh model state = %v, want cold", got)
	}
	if err := m.BeginLoad("a", 0); err != nil {
		t.Fatal(err)
	}
	if got := m.State("a"); got != Loading {
		t.Fatalf("state after BeginLoad = %v", got)
	}
	m.FinishLoad("a", 5)
	if !m.Resident("a") {
		t.Fatal("model not resident after FinishLoad")
	}
	m.CheckInvariants()
}

func TestZeroWeightModelAlwaysResident(t *testing.T) {
	m := mkManager(t, 4)
	if err := m.Register("tiny", 0); err != nil {
		t.Fatal(err)
	}
	if !m.Resident("tiny") {
		t.Fatal("zero-weight model should be born resident")
	}
	if m.UsedBlocks() != 0 {
		t.Fatalf("zero-weight model holds %d blocks", m.UsedBlocks())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	m := mkManager(t, 64) // 32 blocks of 2 MiB
	for _, name := range []string{"a", "b", "c"} {
		if err := m.Register(name, 20*MiB); err != nil {
			t.Fatal(err)
		}
	}
	load := func(name string, at sim.Time) {
		if err := m.BeginLoad(name, at); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		m.FinishLoad(name, at)
	}
	load("a", 10)
	load("b", 20)
	load("c", 30) // 60 MiB of 64 used — no eviction yet
	m.Pin("a", 40)
	m.Unpin("a", 40)
	// d forces an eviction; b is now the LRU victim (a was used at 40).
	if err := m.Register("d", 20*MiB); err != nil {
		t.Fatal(err)
	}
	var evicted []string
	m.onEvict = func(name string) { evicted = append(evicted, name) }
	load("d", 50)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if m.State("b") != Cold {
		t.Fatalf("victim state = %v", m.State("b"))
	}
	m.CheckInvariants()
}

func TestPinProtectsFromEviction(t *testing.T) {
	m := mkManager(t, 40) // 20 blocks
	for _, name := range []string{"a", "b"} {
		if err := m.Register(name, 18*MiB); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.BeginLoad("a", 0); err != nil {
		t.Fatal(err)
	}
	m.FinishLoad("a", 0)
	m.Pin("a", 1)
	// b needs 18 MiB; only 22 MiB free minus a's 18 → free 22 MiB... the
	// device holds 40 MiB total, a uses 18, so 22 free: b fits directly.
	if err := m.BeginLoad("b", 2); err != nil {
		t.Fatal(err)
	}
	m.FinishLoad("b", 2)
	m.Pin("b", 3)
	if err := m.Evict("a"); err == nil {
		t.Fatal("evicted a pinned model")
	}
	m.Unpin("a", 4)
	if err := m.Evict("a"); err != nil {
		t.Fatalf("evict of unpinned model: %v", err)
	}
	m.CheckInvariants()
}

func TestBeginLoadNoMemory(t *testing.T) {
	m := mkManager(t, 32)
	if err := m.Register("a", 30*MiB); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("b", 30*MiB); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginLoad("a", 0); err != nil {
		t.Fatal(err)
	}
	m.FinishLoad("a", 0)
	m.Pin("a", 0)
	err := m.BeginLoad("b", 1)
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("BeginLoad with everything pinned: %v", err)
	}
	// The failed load must not have evicted or leaked anything.
	if m.State("a") != Resident || m.State("b") != Cold {
		t.Fatalf("states after failed load: a=%v b=%v", m.State("a"), m.State("b"))
	}
	m.Unpin("a", 2)
	if err := m.BeginLoad("b", 3); err != nil {
		t.Fatalf("retry after unpin: %v", err)
	}
	m.CheckInvariants()
}

func TestHitRatioAccounting(t *testing.T) {
	m := mkManager(t, 64)
	if err := m.Register("a", 8*MiB); err != nil {
		t.Fatal(err)
	}
	m.Pin("a", 0) // cold pin
	if err := m.BeginLoad("a", 0); err != nil {
		t.Fatal(err)
	}
	m.FinishLoad("a", 1)
	m.Pin("a", 2) // warm hit
	m.Pin("a", 3) // warm hit
	s := m.Stats()
	if s.Pins != 3 || s.WarmHits != 2 || s.ColdPins != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Loads != 1 || s.BytesLoaded != 8*MiB {
		t.Fatalf("load stats = %+v", s)
	}
}

func TestBlockRounding(t *testing.T) {
	m, err := NewManager(Config{CapacityBytes: 10 * MiB, BlockBytes: 4 * MiB})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalBlocks() != 2 {
		t.Fatalf("total blocks = %d", m.TotalBlocks())
	}
	// 5 MiB rounds up to 2 blocks (8 MiB).
	if err := m.Register("a", 5*MiB); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginLoad("a", 0); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 {
		t.Fatalf("used blocks = %d, want 2 (rounded up)", m.UsedBlocks())
	}
}
