package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"paella/internal/gpu"
)

// mirrorCase is one FuzzMirrorSaturated input, in argument order: a
// T4-shaped device with sms SMs of which online stay up (a rescale after SM
// retirement when online < sms), an overshoot budget, resident and reserved
// totals for all four resources, and a kernel.
type mirrorCase struct {
	sms, online                        uint8
	overshoot                          uint16
	resBlocks, rsvBlocks               uint16
	resThreads, rsvThreads             uint32
	resRegs, rsvRegs, resShmem, rsvShm uint32
	blocks, threadsPerBlock            uint16
	regsPerThread                      uint8
	shmemPerBlock                      uint32
}

// build returns the mirror and kernel the case describes, and whether the
// kernel is valid (the only kind the dispatcher lets into the policy).
func (c mirrorCase) build() (*mirror, *gpu.KernelSpec, bool) {
	cfg := gpu.TeslaT4()
	cfg.NumSMs = int(c.sms)
	m := newMirror(cfg, int(c.overshoot))
	if c.online < c.sms {
		m.rescale(cfg, int(c.online))
	}
	m.resBlocks, m.rsvBlocks = int(c.resBlocks), int(c.rsvBlocks)
	m.resThreads, m.rsvThreads = int(c.resThreads), int(c.rsvThreads)
	m.resRegs, m.rsvRegs = int(c.resRegs), int(c.rsvRegs)
	m.resShmem, m.rsvShmem = int(c.resShmem), int(c.rsvShm)
	k := &gpu.KernelSpec{
		Name:              "k",
		Blocks:            int(c.blocks),
		ThreadsPerBlock:   int(c.threadsPerBlock),
		RegsPerThread:     int(c.regsPerThread),
		SharedMemPerBlock: int(c.shmemPerBlock),
	}
	return &m, k, k.Validate() == nil
}

// FuzzMirrorSaturated checks that Saturated() implies CanAccept(k) is
// false for every valid kernel k, on arbitrary mirror states including
// rescaled ones whose capacity fell below resident plus reserved. The
// dispatcher's skip of the PickFit scan is exact only while this holds.
// The seed corpus lives in testdata/fuzz/FuzzMirrorSaturated.
func FuzzMirrorSaturated(f *testing.F) {
	f.Fuzz(func(t *testing.T, sms, online uint8, overshoot, resBlocks, rsvBlocks uint16,
		resThreads, rsvThreads, resRegs, rsvRegs, resShmem, rsvShm uint32,
		blocks, threadsPerBlock uint16, regsPerThread uint8, shmemPerBlock uint32) {
		m, k, valid := mirrorCase{
			sms, online, overshoot, resBlocks, rsvBlocks, resThreads, rsvThreads,
			resRegs, rsvRegs, resShmem, rsvShm, blocks, threadsPerBlock, regsPerThread, shmemPerBlock,
		}.build()
		if valid && m.Saturated() && m.CanAccept(k) {
			t.Fatalf("saturated mirror %+v accepts kernel %+v", *m, *k)
		}
	})
}

// TestMirrorSaturatedCorpus keeps FuzzMirrorSaturated from passing
// vacuously: its seed corpus must reach a saturated state, and an
// unsaturated one that still refuses its kernel (Saturated is sufficient
// for refusal, not necessary).
func TestMirrorSaturatedCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzMirrorSaturated/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus (%v)", err)
	}
	var saturated, refusedUnsaturated int
	for _, path := range files {
		m, k, valid := readMirrorSeed(t, path).build()
		if !valid {
			t.Errorf("%s: seed kernel is invalid", path)
			continue
		}
		switch sat, ok := m.Saturated(), m.CanAccept(k); {
		case sat:
			saturated++
		case !ok:
			refusedUnsaturated++
		}
	}
	if saturated == 0 || refusedUnsaturated == 0 {
		t.Fatalf("corpus reaches %d saturated and %d refusing unsaturated states; want ≥1 of each",
			saturated, refusedUnsaturated)
	}
}

// readMirrorSeed parses a corpus file: the "go test fuzz v1" header, then
// one unsigned value per line as type(value), in mirrorCase field order.
func readMirrorSeed(t *testing.T, path string) mirrorCase {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	v := make([]uint64, 0, 15)
	for _, line := range lines[1:] {
		_, arg, _ := strings.Cut(strings.TrimSuffix(line, ")"), "(")
		n, err := strconv.ParseUint(arg, 10, 32)
		if err != nil {
			t.Fatalf("%s: bad value line %q", path, line)
		}
		v = append(v, n)
	}
	if len(v) != 15 {
		t.Fatalf("%s: %d values, want 15", path, len(v))
	}
	return mirrorCase{
		uint8(v[0]), uint8(v[1]), uint16(v[2]), uint16(v[3]), uint16(v[4]),
		uint32(v[5]), uint32(v[6]), uint32(v[7]), uint32(v[8]), uint32(v[9]), uint32(v[10]),
		uint16(v[11]), uint16(v[12]), uint8(v[13]), uint32(v[14]),
	}
}
