package gpu

import (
	"testing"

	"paella/internal/sim"
)

// refWaterFill is the iterative round-robin fill placeBlocks used before
// its level had a closed form, kept as the oracle for FuzzWaterLevel. caps
// are the eligible SMs' capacities in cursor order. Every still-eligible
// SM gets the same number of blocks per level, SMs peel off as they reach
// capacity, and a final partial round hands one block each to the leading
// unsaturated SMs. It returns each SM's share and the blocks left unplaced.
func refWaterFill(caps []int, toPlace int) (got []int, remaining int) {
	got = make([]int, len(caps))
	minRem := 0
	for j, c := range caps {
		if j == 0 || c < minRem {
			minRem = c
		}
	}
	remaining = toPlace
	k := len(caps)
	for remaining > 0 {
		if k == 0 {
			break
		}
		if remaining < k {
			for j := range caps {
				if remaining == 0 {
					break
				}
				if caps[j]-got[j] > 0 {
					got[j]++
					remaining--
				}
			}
			break
		}
		give := remaining / k
		if give > minRem {
			give = minRem
		}
		for j := range caps {
			if caps[j]-got[j] > 0 {
				got[j] += give
			}
		}
		remaining -= give * k
		k = 0
		for j := range caps {
			if r := caps[j] - got[j]; r > 0 {
				if k == 0 || r < minRem {
					minRem = r
				}
				k++
			}
		}
	}
	return got, remaining
}

// FuzzWaterLevel builds a device of 1–108 SMs with MaxBlocks 1–32, gives
// each SM a spare capacity in [0, MaxBlocks] (or retires it), places one
// launch of 1-thread blocks from a drawn cursor, and requires every SM's
// share and the unplaced remainder to equal refWaterFill's exactly. Block
// slots are the only binding limit, so an SM's capacity is its free slots.
// The device's running aggregates and room bits must agree with its SMs
// before and after.
func FuzzWaterLevel(f *testing.F) {
	// The leftover block must skip the SM already filled to the level.
	f.Add(uint8(2), uint8(2), []byte{1, 2, 3}, uint8(0), uint16(3))
	// An idle device: an even split with a remainder, and everything fits.
	f.Add(uint8(39), uint8(15), []byte{}, uint8(7), uint16(127))
	f.Add(uint8(3), uint8(3), []byte{4, 4, 4, 4}, uint8(1), uint16(40))
	// An idle device with a retired SM (byte 5 = MaxBlocks+1) and a cursor
	// on it.
	f.Add(uint8(3), uint8(3), []byte{4, 5, 4, 4}, uint8(1), uint16(10))
	// Mixed capacities, some full, several levels.
	f.Add(uint8(7), uint8(7), []byte{0, 8, 3, 1, 7, 5, 2, 6}, uint8(5), uint16(19))
	// 108 SMs (two room words) of MaxBlocks 4: byte i%6 makes every sixth
	// SM full and every sixth retired in both words. From a cursor in the
	// second word the leftover blocks wrap into the first; from 0 more
	// blocks arrive than fit.
	caps108 := make([]byte, 108)
	for i := range caps108 {
		caps108[i] = byte(i % 6)
	}
	f.Add(uint8(107), uint8(3), caps108, uint8(70), uint16(101))
	f.Add(uint8(107), uint8(3), caps108, uint8(0), uint16(250))
	f.Fuzz(func(t *testing.T, smsRaw, maxRaw uint8, capsRaw []byte, cursorRaw uint8, toPlaceRaw uint16) {
		nsm := 1 + int(smsRaw)%108
		maxB := 1 + int(maxRaw)%32
		cfg := Config{
			Name: "fuzz", NumSMs: nsm,
			SM:          SMResources{MaxBlocks: maxB, MaxThreads: 1024, MaxRegisters: 65536, MaxSharedMem: 48 << 10},
			NumHWQueues: 1,
		}
		d := NewDevice(sim.NewEnv(), cfg, nil)
		for i := range d.sms {
			// Byte b gives capacity b mod (MaxBlocks+2); the top value
			// retires the SM. Missing bytes leave the SM idle.
			c := maxB
			if i < len(capsRaw) {
				c = int(capsRaw[i]) % (maxB + 2)
			}
			if c > maxB {
				d.RetireSM(i)
				continue
			}
			sm := &d.sms[i]
			sm.blocks, sm.threads = maxB-c, maxB-c
			d.resident += sm.blocks
			d.threadsInUse += sm.threads
			d.freeBlocks -= sm.blocks
			d.freeThreads -= sm.threads
			d.updateRoom(i)
		}
		d.CheckInvariants()
		d.smCursor = int(cursorRaw) % nsm
		toPlace := 1 + int(toPlaceRaw)%(2*nsm*maxB)

		var caps, order []int
		for i := 0; i < nsm; i++ {
			smi := (d.smCursor + i) % nsm
			sm := &d.sms[smi]
			if c := maxB - sm.blocks; !sm.offline && c > 0 {
				caps = append(caps, c)
				order = append(order, smi)
			}
		}
		want, wantLeft := refWaterFill(caps, toPlace)

		before := make([]int, nsm)
		for i := range d.sms {
			before[i] = d.sms[i].blocks
		}
		l := &Launch{Spec: &KernelSpec{Name: "k", Blocks: toPlace, ThreadsPerBlock: 1, BlockDuration: sim.Microsecond}}
		l.toPlace, l.toFinish = toPlace, toPlace
		d.placeBlocks(l)
		d.CheckInvariants()

		gotBySM := make([]int, nsm)
		for i := range d.sms {
			gotBySM[i] = d.sms[i].blocks - before[i]
		}
		for j, smi := range order {
			if gotBySM[smi] != want[j] {
				t.Fatalf("SM %d (capacity %d): placed %d, reference %d; caps %v, toPlace %d", smi, caps[j], gotBySM[smi], want[j], caps, toPlace)
			}
			gotBySM[smi] = 0
		}
		for smi, n := range gotBySM {
			if n != 0 {
				t.Fatalf("SM %d without capacity got %d blocks", smi, n)
			}
		}
		if l.toPlace != wantLeft {
			t.Fatalf("%d blocks left unplaced, reference %d; caps %v, toPlace %d", l.toPlace, wantLeft, caps, toPlace)
		}
	})
}
