package experiments

import (
	"fmt"
	"io"

	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "fig10",
		Title: "Figure 10: per-request overhead breakdown for a single MobileNetV2 request",
		Run:   runFig10,
	})
}

// clientSendRecv is the client-side staging cost (write input tensor /
// read output) common to the shared-memory systems.
const clientSendRecv = 2 * sim.Microsecond

// runFig10 sends one isolated MobileNetV2 request through each system and
// decomposes the non-execution latency into the paper's four components.
func runFig10(w io.Writer, _ Detail) error {
	systems := []string{
		"Triton", "Clockwork", "Paella",
		"Paella-MS-kbk", "Paella-MS-jbj", "Paella-SS",
		"Paella-SJF", "Paella-RR",
	}
	opts := serving.DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])} // mobilenetv2
	opts.ProfileRuns = 2
	trace := []workload.Request{{At: sim.Millisecond, Model: "mobilenetv2", Client: 0}}

	fmt.Fprintln(w, "Figure 10 — single-request overhead breakdown (µs; execution excluded):")
	fmt.Fprintf(w, "  %-14s %10s %12s %8s %12s %8s\n",
		"system", "framework", "queue/sched", "comm", "client s/r", "total")
	for _, name := range systems {
		col := serving.MustRunTrace(serving.MustNewSystem(name), trace, opts)
		if col.Len() != 1 {
			return fmt.Errorf("fig10: %s delivered %d records", name, col.Len())
		}
		r := col.Records()[0]
		comm := r.CommNs()
		total := r.FrameworkNs + r.SchedNs + comm + clientSendRecv
		fmt.Fprintf(w, "  %-14s %10.1f %12.1f %8.1f %12.1f %8.1f\n",
			name,
			r.FrameworkNs.Micros(), r.SchedNs.Micros(), comm.Micros(),
			clientSendRecv.Micros(), total.Micros())
	}
	fmt.Fprintln(w, "\nExpected shape (paper): Triton's gRPC communication dominates its")
	fmt.Fprintln(w, "~hundreds-of-µs overhead; Clockwork's controller/worker split costs")
	fmt.Fprintln(w, "even more framework time; all Paella variants stay within tens of µs,")
	fmt.Fprintln(w, "with scheduling overhead comparable to their FIFO ablations.")
	return nil
}
