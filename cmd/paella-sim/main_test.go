package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// childEnv makes the test binary run main() instead of the tests: each
// case re-executes the binary with its paella-sim arguments, so main() is
// exercised exactly as the CLI runs it (flag parsing, os.Exit on fatal).
const childEnv = "PAELLA_SIM_TEST_CHILD"

var updateGolden = flag.Bool("update", false, "rewrite testdata/stdout goldens")

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCases are the pinned paella-sim invocations: the CI smoke runs plus
// the cluster fleet under every gateway policy.
var cliCases = []struct {
	name string
	args []string
}{
	{"chaos-smoke", []string{"-system", "Paella", "-models", "resnet18,mobilenetv2",
		"-rate", "300", "-jobs", "200", "-seed", "7", "-chaos", "0.25"}},
	{"batching-plain", []string{"-system", "Paella", "-models", "resnet18,mobilenetv2",
		"-rate", "4000", "-jobs", "600", "-clients", "8", "-sigma", "2", "-seed", "5"}},
	{"batching-batch", []string{"-system", "Paella-batch", "-models", "resnet18,mobilenetv2",
		"-rate", "4000", "-jobs", "600", "-clients", "8", "-sigma", "2", "-seed", "5"}},
	{"cluster-round-robin", fleetArgs("round-robin")},
	{"cluster-least-loaded", fleetArgs("least-loaded")},
	{"cluster-model-affinity", fleetArgs("model-affinity")},
	{"cluster-residency-aware", fleetArgs("residency-aware")},
	{"cluster-predicted-latency", fleetArgs("predicted-latency")},
	{"cluster-affinity", fleetArgs("affinity")},
	{"gateway-admission", []string{"-replicas", "3", "-gateway", "predicted-latency",
		"-tenants", "3", "-admit-rate", "120", "-rate", "600", "-jobs", "300", "-seed", "7",
		"-models", "resnet18,mobilenetv2"}},
	{"llm-colocated", []string{"-llm", "-rate", "1200", "-jobs", "400", "-clients", "8",
		"-sigma", "2", "-seed", "5", "-max-tokens", "64"}},
	{"llm-pd", []string{"-llm", "-pd-split", "1:1", "-rate", "400", "-jobs", "200",
		"-clients", "8", "-sigma", "2", "-seed", "5", "-max-tokens", "64"}},
	{"llm-pd-gateway", []string{"-llm", "-pd-split", "1:1", "-gateway", "affinity",
		"-tenants", "2", "-admit-rate", "80", "-rate", "200", "-jobs", "150", "-clients", "8",
		"-seed", "5", "-max-tokens", "64"}},
	{"autoscale-smoke", []string{"-autoscale", "queue-depth",
		"-traffic", "testdata/spike_smoke.json",
		"-replicas", "1", "-min-replicas", "1", "-max-replicas", "3",
		"-models", "synth:2", "-vram", "256", "-slo", "5ms", "-telemetry-window", "50ms"}},
}

// fleetArgs is a 3-replica cluster run under a VRAM budget, routed by the
// named gateway policy.
func fleetArgs(policy string) []string {
	return []string{"-replicas", "3", "-rate", "600", "-jobs", "300", "-seed", "7",
		"-models", "resnet18,mobilenetv2", "-vram", "64", "-gateway", policy}
}

// TestStdoutGolden runs each pinned invocation and compares its stdout
// with testdata/stdout/<name>.txt byte for byte. Rewrite the goldens with
// -update only for an intended output change.
func TestStdoutGolden(t *testing.T) {
	for _, tc := range cliCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := runCLI(t, tc.args...)
			path := filepath.Join("testdata", "stdout", tc.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// runCLI re-executes the test binary as paella-sim with args and returns
// its stdout; a non-zero exit fails the test with the child's stderr.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("paella-sim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes()
}
