package model

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"paella/internal/gpu"
	"paella/internal/sim"
)

// ZooEntry describes one model to synthesize: the observable properties
// from Table 2 (and the Figure 3 models) plus structural knobs.
type ZooEntry struct {
	Name string
	// ExecTime is the target end-to-end TVM execution time (Table 2).
	ExecTime sim.Time
	// Executions is the number of kernel launches per inference
	// (approximating the paper's computation-graph node counts).
	Executions int
	// Unique is the number of distinct compiled kernels.
	Unique int
	// InputBytes/OutputBytes size the I/O tensors.
	InputBytes  int
	OutputBytes int
	// WeightBytes is the fp32 parameter footprint in device memory
	// (internal/vram residency accounting; zero = negligible).
	WeightBytes int
}

const imgInput = 224 * 224 * 3 * 4 // float32 ImageNet tensor
const clsOutput = 1000 * 4         // float32 logits

// Table2 lists the paper's evaluation models (Table 2) with their measured
// TVM execution times. Kernel counts approximate the published graph sizes
// for each architecture.
func Table2() []ZooEntry {
	return []ZooEntry{
		{"resnet18", sim.Time(1.58 * float64(sim.Millisecond)), 48, 24, imgInput, clsOutput, 45 << 20},
		{"mobilenetv2", sim.Time(1.67 * float64(sim.Millisecond)), 66, 33, imgInput, clsOutput, 14 << 20},
		{"resnet34", sim.Time(2.55 * float64(sim.Millisecond)), 84, 30, imgInput, clsOutput, 84 << 20},
		{"squeezenet1.1", sim.Time(4.79 * float64(sim.Millisecond)), 50, 25, imgInput, clsOutput, 5 << 20},
		{"resnet50", sim.Time(5.76 * float64(sim.Millisecond)), 107, 38, imgInput, clsOutput, 98 << 20},
		{"densenet", sim.Time(6.08 * float64(sim.Millisecond)), 200, 40, imgInput, clsOutput, 31 << 20},
		{"googlenet", sim.Time(7.86 * float64(sim.Millisecond)), 130, 44, imgInput, clsOutput, 27 << 20},
		{"inceptionv3", sim.Time(31.2 * float64(sim.Millisecond)), 220, 52, 299 * 299 * 3 * 4, clsOutput, 91 << 20},
	}
}

// Fig3Entries lists the models of the paper's Figure 3 (Triton overhead
// breakdown), which partially overlap Table 2.
func Fig3Entries() []ZooEntry {
	return []ZooEntry{
		{"densenet121", sim.Time(6.08 * float64(sim.Millisecond)), 200, 40, imgInput, clsOutput, 31 << 20},
		{"googlenet", sim.Time(7.86 * float64(sim.Millisecond)), 130, 44, imgInput, clsOutput, 27 << 20},
		{"gpt2", sim.Time(9.5 * float64(sim.Millisecond)), 2499, 60, 64 * 4, 64 * 768 * 4, 475 << 20},
		{"mobilenetv2", sim.Time(1.67 * float64(sim.Millisecond)), 66, 33, imgInput, clsOutput, 14 << 20},
		{"resnet50", sim.Time(5.76 * float64(sim.Millisecond)), 107, 38, imgInput, clsOutput, 98 << 20},
		{"vgg16", sim.Time(7.1 * float64(sim.Millisecond)), 38, 19, imgInput, clsOutput, 528 << 20},
		{"yolov5", sim.Time(12.3 * float64(sim.Millisecond)), 310, 48, 640 * 640 * 3 * 4, 25200 * 85 * 4, 28 << 20},
	}
}

// Generate synthesizes a model from a zoo entry. The same entry always
// yields the same model (seeded by name). Kernel durations follow a
// lognormal profile — a few heavy convolutions dominate, with a long tail
// of cheap elementwise kernels — scaled so that the sum over the execution
// sequence equals the entry's target execution time.
func Generate(e ZooEntry) *Model {
	if e.Unique <= 0 || e.Executions < e.Unique {
		panic(fmt.Sprintf("model: bad zoo entry %+v", e))
	}
	rng := rand.New(rand.NewSource(seedFor(e.Name)))

	// Draw raw duration weights for unique kernels.
	weights := make([]float64, e.Unique)
	var wsum float64
	for i := range weights {
		weights[i] = math.Exp(rng.NormFloat64() * 1.0)
	}
	// Build the execution sequence: every unique kernel appears at least
	// once; remaining slots reuse kernels biased toward the cheap ones
	// (elementwise ops repeat more often than big convolutions).
	seq := make([]int, 0, e.Executions)
	for i := 0; i < e.Unique; i++ {
		seq = append(seq, i)
	}
	for len(seq) < e.Executions {
		seq = append(seq, rng.Intn(e.Unique))
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })

	// Scale weights so the sequence's total duration hits the target.
	for _, i := range seq {
		wsum += weights[i]
	}
	target := float64(e.ExecTime)
	kernels := make([]*gpu.KernelSpec, e.Unique)
	// Shapes are chosen so that a typical kernel occupies a substantial
	// fraction of a T4-class device (roughly 10-40% of its thread slots)
	// in a single occupancy wave — matching how TVM-compiled CNN operators
	// behave, and making GPU capacity (not arrival rate) the binding
	// constraint at the load levels of Figures 11/12.
	threadChoices := []int{128, 256}
	for i := range kernels {
		dur := sim.Time(weights[i] / wsum * target)
		if dur < sim.Microsecond {
			dur = sim.Microsecond
		}
		kernels[i] = &gpu.KernelSpec{
			Name:              fmt.Sprintf("%s_k%02d", e.Name, i),
			Blocks:            16 << rng.Intn(3), // 16, 32 or 64 blocks
			ThreadsPerBlock:   threadChoices[rng.Intn(len(threadChoices))],
			RegsPerThread:     16 + rng.Intn(16),
			SharedMemPerBlock: []int{0, 0, 2 << 10, 8 << 10}[rng.Intn(4)],
			BlockDuration:     dur,
		}
	}
	m := &Model{
		Name:        e.Name,
		InputBytes:  e.InputBytes,
		OutputBytes: e.OutputBytes,
		WeightBytes: e.WeightBytes,
		Kernels:     kernels,
		Seq:         seq,
	}
	if err := m.Validate(); err != nil {
		panic("model: generated invalid model: " + err.Error())
	}
	return m
}

// Table2Models generates the full Table 2 zoo, sorted by execution time.
func Table2Models() []*Model {
	entries := Table2()
	out := make([]*Model, len(entries))
	for i, e := range entries {
		out[i] = Generate(e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].KernelTime() < out[j].KernelTime() })
	return out
}

// SyntheticZoo generates n distinct models for many-model experiments
// (model zoos larger than the paper's eight). Entries cycle through a small
// palette of execution times, kernel counts and weight footprints so a zoo
// mixes small/cheap and large/expensive models; generation is seeded by
// name, so the same n always yields byte-identical models.
func SyntheticZoo(n int) []*Model {
	execChoices := []sim.Time{
		sim.Time(1.5 * float64(sim.Millisecond)),
		sim.Time(2.5 * float64(sim.Millisecond)),
		sim.Time(4.0 * float64(sim.Millisecond)),
		sim.Time(6.0 * float64(sim.Millisecond)),
		sim.Time(8.0 * float64(sim.Millisecond)),
	}
	execsChoices := []int{48, 66, 84, 107, 130}
	uniqueChoices := []int{24, 33, 30, 38, 44}
	weightChoices := []int{24 << 20, 36 << 20, 48 << 20, 64 << 20, 96 << 20}
	out := make([]*Model, n)
	for i := 0; i < n; i++ {
		out[i] = Generate(ZooEntry{
			Name:        fmt.Sprintf("zoo-%02d", i),
			ExecTime:    execChoices[i%len(execChoices)],
			Executions:  execsChoices[i%len(execsChoices)],
			Unique:      uniqueChoices[i%len(uniqueChoices)],
			InputBytes:  imgInput,
			OutputBytes: clsOutput,
			WeightBytes: weightChoices[(i*3+i/5)%len(weightChoices)],
		})
	}
	return out
}

// ByName generates the named zoo model (Table 2 or Figure 3 set).
func ByName(name string) (*Model, error) {
	for _, e := range append(Table2(), Fig3Entries()...) {
		if e.Name == name {
			return Generate(e), nil
		}
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}

// Names returns the Table 2 model names in declaration order.
func Names() []string {
	entries := Table2()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// Fig2Job returns the synthetic job of the paper's Figure 2 HoL-blocking
// experiment: 8 kernels, each a single block of 128 threads and 9
// registers, executing for ~300µs.
func Fig2Job() *Model {
	k := &gpu.KernelSpec{
		Name:            "fig2_kernel",
		Blocks:          1,
		ThreadsPerBlock: 128,
		RegsPerThread:   9,
		BlockDuration:   300 * sim.Microsecond,
	}
	return &Model{
		Name:         "fig2job",
		InputBytes:   4096,
		OutputBytes:  4096,
		Kernels:      []*gpu.KernelSpec{k},
		Seq:          []int{0, 0, 0, 0, 0, 0, 0, 0},
		PinnedOutput: true,
	}
}

// TinyNet returns an MNIST-scale model roughly 1000× smaller than the
// smallest Table 2 model, used for the paper's scheduling-delay stress test
// (Figure 9) and the client-CPU experiment (Figure 14).
func TinyNet() *Model {
	mk := func(i int, dur sim.Time) *gpu.KernelSpec {
		return &gpu.KernelSpec{
			Name:            fmt.Sprintf("tinynet_k%d", i),
			Blocks:          2,
			ThreadsPerBlock: 128,
			RegsPerThread:   16,
			BlockDuration:   dur,
		}
	}
	return &Model{
		Name:        "tinynet",
		InputBytes:  28 * 28 * 4,
		OutputBytes: 10 * 4,
		Kernels: []*gpu.KernelSpec{
			mk(0, 30*sim.Microsecond),
			mk(1, 40*sim.Microsecond),
			mk(2, 30*sim.Microsecond),
		},
		Seq:          []int{0, 1, 2},
		PinnedOutput: true,
	}
}

// LongShort returns the Figure 13 pair: two job types where the long one
// has 5× as many kernels as the short one.
func LongShort() (short, long *Model) {
	mk := func(name string, n int) *Model {
		k := &gpu.KernelSpec{
			Name:            name + "_k",
			Blocks:          16, // ~10% of a T4's thread slots per kernel
			ThreadsPerBlock: 256,
			RegsPerThread:   32,
			BlockDuration:   200 * sim.Microsecond,
		}
		seq := make([]int, n)
		return &Model{
			Name:         name,
			InputBytes:   16 << 10,
			OutputBytes:  4 << 10,
			Kernels:      []*gpu.KernelSpec{k},
			Seq:          seq,
			PinnedOutput: true,
		}
	}
	return mk("shortjob", 8), mk("longjob", 40)
}

func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & math.MaxInt64)
}
