package main

import (
	"slices"
	"time"
)

// calibRefNs is the mean cost of one calibration call on the reference box
// (2 vCPU, go1.24, GOMAXPROCS=2). Host metrics are normalized as
// raw × calibRefNs / (this run's mean calibration time), so a run on a host
// that is uniformly slower for the run's duration reports the same host_s.
const calibRefNs = 15e6

// calibLen is the calibration kernel's input size: 128 Ki ints (1 MiB),
// large enough that one call outlasts timer and scheduler jitter, small
// enough that calling it after every slice costs about 5 % of a run.
const calibLen = 128 << 10

// calibrator runs a fixed, deterministic CPU- and cache-bound kernel (copy
// then sort a fixed pseudo-random sequence) between simulation slices and
// records how long each call took. Its buffers are allocated once, so the
// kernel itself never allocates or triggers the garbage collector.
type calibrator struct {
	src, buf []int
	total    time.Duration
	calls    int
}

func newCalibrator() *calibrator {
	c := &calibrator{src: make([]int, calibLen), buf: make([]int, calibLen)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.src {
		// xorshift64: the same sequence on every run and every host.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.src[i] = int(x >> 1)
	}
	return c
}

// run executes the kernel once, adding its duration to the total.
func (c *calibrator) run() {
	t0 := time.Now()
	copy(c.buf, c.src)
	slices.Sort(c.buf)
	c.total += time.Since(t0)
	c.calls++
}

// factor returns calibRefNs / mean calibration time: multiply a raw host
// duration by it to express the duration on the reference box.
func (c *calibrator) factor() float64 {
	return calibRefNs / (float64(c.total.Nanoseconds()) / float64(c.calls))
}
