// Command scalebench times the cluster event loop on a zipf workload —
// the measurement driver behind BENCH_scale.json's seed baseline.
//
// Usage:
//
//	scalebench [-cpuprofile cpu.out] [-memprofile mem.out] <replicas> <jobs>
//
// The profile flags (or the SCALEBENCH_CPUPROFILE / SCALEBENCH_MEMPROFILE
// environment variables, kept for script compatibility) bracket only the
// measured event loop, not cluster construction or model registration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/workload"
)

func main() {
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the event loop to this file")
	memprofile := flag.String("memprofile", "", "write an allocs profile (post-loop) to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scalebench [-cpuprofile file] [-memprofile file] <replicas> <jobs>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	replicas, err := strconv.Atoi(flag.Arg(0))
	if err != nil || replicas < 1 {
		fmt.Fprintf(os.Stderr, "scalebench: bad replica count %q\n", flag.Arg(0))
		os.Exit(2)
	}
	jobs, err := strconv.Atoi(flag.Arg(1))
	if err != nil || jobs < 1 {
		fmt.Fprintf(os.Stderr, "scalebench: bad job count %q\n", flag.Arg(1))
		os.Exit(2)
	}

	models := model.SyntheticZoo(8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	reqs := workload.MustGenerate(workload.Spec{
		Mix: workload.ZipfMix(names, 1.1), Sigma: 2,
		RatePerSec: 800 * float64(replicas), Jobs: jobs, Clients: 8, Seed: 42,
	})
	devs := make([]gpu.Config, replicas)
	for i := range devs {
		devs[i] = gpu.TeslaT4()
	}
	env := sim.NewEnv()
	c, err := cluster.New(env, devs, func() sched.Policy { return sched.NewPaella(10000) }, gateway.NewLeastLoaded())
	if err != nil {
		panic(err)
	}
	for _, m := range models {
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			panic(err)
		}
	}
	conn := c.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	for i, r := range reqs {
		id, mdl := uint64(i+1), r.Model
		env.At(r.At, func() {
			conn.Submit(core.Request{ID: id, Model: mdl, Submit: env.Now()})
		})
	}
	stop := startProfile(*cpuprofile, *memprofile)
	start := time.Now()
	env.RunUntil(reqs[len(reqs)-1].At + 8*sim.Second)
	el := time.Since(start)
	stop()
	fmt.Printf("replicas=%d jobs=%d completed=%d steps=%d wall=%v\n",
		replicas, jobs, done, env.Steps(), el)
}
