package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// childEnv makes the test binary run main() instead of the tests: each
// case re-executes the binary with its paella-sim arguments, so main() is
// exercised exactly as the CLI runs it (flag parsing, os.Exit on fatal).
const childEnv = "PAELLA_SIM_TEST_CHILD"

var updateGolden = flag.Bool("update", false, "rewrite testdata/stdout goldens")

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		// A fresh flag set, without the testing flags, so the child's
		// usage text is the installed binary's.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCases are the pinned paella-sim invocations: the smoke runs whose
// invariants TestSmokeInvariants checks, the README examples, the cluster fleet under every gateway policy, and each
// mode's output files. An argument "@out<ext>" is replaced by a fresh
// temporary path; the file written there is pinned too.
var cliCases = []cliCase{
	{name: "chaos-smoke", args: []string{"-system", "Paella", "-models", "resnet18,mobilenetv2",
		"-rate", "300", "-jobs", "200", "-seed", "7", "-chaos", "0.25"}},
	{name: "batching-plain", args: []string{"-system", "Paella", "-models", "resnet18,mobilenetv2",
		"-rate", "4000", "-jobs", "600", "-clients", "8", "-sigma", "2", "-seed", "5"}},
	{name: "batching-batch", args: []string{"-system", "Paella-batch", "-models", "resnet18,mobilenetv2",
		"-rate", "4000", "-jobs", "600", "-clients", "8", "-sigma", "2", "-seed", "5"}},
	{name: "cluster-round-robin", args: fleetArgs("round-robin")},
	{name: "cluster-least-loaded", args: fleetArgs("least-loaded")},
	{name: "cluster-model-affinity", args: fleetArgs("model-affinity")},
	{name: "cluster-residency-aware", args: fleetArgs("residency-aware")},
	{name: "cluster-predicted-latency", args: fleetArgs("predicted-latency")},
	{name: "cluster-affinity", args: fleetArgs("affinity")},
	{name: "gateway-admission", args: []string{"-replicas", "3", "-gateway", "predicted-latency",
		"-tenants", "3", "-admit-rate", "120", "-rate", "600", "-jobs", "300", "-seed", "7",
		"-models", "resnet18,mobilenetv2"}},
	{name: "llm-colocated", args: llmArgs()},
	{name: "llm-static", args: append([]string{"-llm", "-llm-static"}, llmArgs()[1:]...)},
	{name: "llm-pd", args: []string{"-llm", "-pd-split", "1:1", "-rate", "400", "-jobs", "200",
		"-clients", "8", "-sigma", "2", "-seed", "5", "-max-tokens", "64"}},
	{name: "llm-pd-gateway", args: []string{"-llm", "-pd-split", "1:1", "-gateway", "affinity",
		"-tenants", "2", "-admit-rate", "80", "-rate", "200", "-jobs", "150", "-clients", "8",
		"-seed", "5", "-max-tokens", "64"}},
	{name: "autoscale-smoke", args: autoscaleSmokeArgs()},

	// The README examples.
	{name: "readme-per-model", args: []string{"-system", "Paella", "-models", "resnet18,inceptionv3",
		"-rate", "400", "-jobs", "500", "-per-model"}},
	{name: "readme-vram-zipf", args: []string{"-system", "Paella", "-models", "synth:16",
		"-vram", "256", "-zipf", "1.1", "-rate", "250", "-jobs", "2000"}},
	{name: "readme-autoscale-diurnal", args: []string{"-autoscale", "queue-depth", "-traffic", "diurnal",
		"-rate", "20000", "-sigma", "1", "-replicas", "2", "-min-replicas", "1", "-max-replicas", "4",
		"-models", "synth:2", "-vram", "256", "-slo", "5ms"}},
	{name: "readme-trace-out", args: []string{"-system", "Paella", "-models", "resnet18",
		"-rate", "400", "-jobs", "100", "-trace-out", "@out.json"}},
	{name: "readme-telemetry-out", args: []string{"-system", "Paella", "-models", "resnet18",
		"-rate", "400", "-jobs", "100", "-telemetry-out", "@out.json",
		"-telemetry-window", "10ms", "-slo", "50ms"}},
	{name: "readme-json", args: []string{"-system", "Paella", "-jobs", "200", "-json"}, digest: true},

	// Each mode's remaining output surfaces.
	{name: "fleet-json", args: append(fleetArgs("least-loaded"), "-json"), digest: true},
	{name: "fleet-per-model", args: append(fleetArgs("least-loaded"), "-per-model")},
	{name: "fleet-chaos", args: []string{"-system", "Paella", "-models", "resnet18,mobilenetv2",
		"-rate", "300", "-jobs", "200", "-seed", "7", "-chaos", "0.25", "-replicas", "2"}},
	{name: "fleet-trace-out", args: []string{"-replicas", "2", "-jobs", "6", "-clients", "1",
		"-gpu", "gtx1660s", "-models", "resnet18", "-trace-out", "@out.json"}},
	{name: "autoscale-per-model", args: append(autoscaleSmokeArgs(), "-per-model")},
	{name: "single-traffic-spike", args: []string{"-traffic", "spike", "-models", "resnet18", "-rate", "300"}},
	{name: "llm-replicas-telemetry", args: append(llmArgs(), "-replicas", "2",
		"-telemetry-out", "@out.json")},
	{name: "llm-serial-telemetry", args: append(llmArgs(), "-telemetry-out", "@out.json")},

	// The record dump TestSmokeInvariants renders as an anatomy report.
	{name: "tiny-json", args: append(tinyArgs(), "-json")},

	// The committed file goldens.
	{name: "golden-trace", args: append(tinyArgs(), "-trace-out", "@out.json"),
		out: "../../testdata/golden_trace.json.gz"},
	{name: "golden-telemetry", args: append(tinyArgs(), "-telemetry-out", "@out.json"),
		out: "testdata/golden_telemetry.json"},
	{name: "golden-autoscale-telemetry", args: append(autoscaleSmokeArgs(), "-telemetry-out", "@out.json"),
		out: "testdata/golden_autoscale_telemetry.json"},
}

// cliCase is one pinned invocation. Its stdout is pinned in
// testdata/stdout/<name>.txt, or by SHA-256 in testdata/stdout/<name>.sha256
// when digest is set (record dumps too large to review). The "@out" file is
// pinned against the committed golden out (gunzipped when it ends in .gz),
// or by SHA-256 in testdata/out/<name>.sha256 when out is empty.
type cliCase struct {
	name   string
	args   []string
	out    string
	digest bool
}

// fleetArgs is a 3-replica cluster run under a VRAM budget, routed by the
// named gateway policy.
func fleetArgs(policy string) []string {
	return []string{"-replicas", "3", "-rate", "600", "-jobs", "300", "-seed", "7",
		"-models", "resnet18,mobilenetv2", "-vram", "64", "-gateway", policy}
}

// llmArgs is the CI llm smoke run: one colocated engine at saturating load.
func llmArgs() []string {
	return []string{"-llm", "-rate", "1200", "-jobs", "400", "-clients", "8",
		"-sigma", "2", "-seed", "5", "-max-tokens", "64"}
}

// autoscaleSmokeArgs is the CI autoscale smoke run: a flash crowd against
// an elastic pool of one to three replicas.
func autoscaleSmokeArgs() []string {
	return []string{"-autoscale", "queue-depth", "-traffic", "testdata/spike_smoke.json",
		"-replicas", "1", "-min-replicas", "1", "-max-replicas", "3",
		"-models", "synth:2", "-vram", "256", "-slo", "5ms", "-telemetry-window", "50ms"}
}

// tinyArgs is the three-job run behind the committed trace and telemetry
// goldens.
func tinyArgs() []string {
	return []string{"-system", "Paella", "-models", "resnet18", "-rate", "400",
		"-jobs", "3", "-clients", "1", "-seed", "7", "-gpu", "gtx1660s"}
}

// TestStdoutGolden runs each pinned invocation and compares its stdout,
// and any output file, with the committed goldens byte for byte. Rewrite
// the goldens with -update only for an intended output change.
func TestStdoutGolden(t *testing.T) {
	for _, tc := range cliCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string(nil), tc.args...)
			outPath := ""
			for i, a := range args {
				if strings.HasPrefix(a, "@out") {
					outPath = filepath.Join(t.TempDir(), a[1:])
					args[i] = outPath
				}
			}
			stdout, stderr, code := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("paella-sim %v: exit %d\n%s", tc.args, code, stderr)
			}
			if tc.digest {
				pinDigest(t, filepath.Join("testdata", "stdout", tc.name+".sha256"), stdout)
			} else {
				pinGolden(t, filepath.Join("testdata", "stdout", tc.name+".txt"), stdout)
			}
			if outPath == "" {
				return
			}
			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if tc.out == "" {
				pinDigest(t, filepath.Join("testdata", "out", tc.name+".sha256"), got)
			} else {
				pinGolden(t, tc.out, got)
			}
		})
	}
}

// TestUsage pins the -h text (flag names, defaults and help strings) and
// its exit status 0.
func TestUsage(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-h")
	if code != 0 || len(stdout) != 0 {
		t.Fatalf("paella-sim -h: exit %d, stdout %q", code, stdout)
	}
	got := bytes.ReplaceAll(stderr, []byte(os.Args[0]), []byte("paella-sim"))
	pinGolden(t, filepath.Join("testdata", "usage.txt"), got)
}

// pinGolden compares got with the golden at path, gunzipping a .gz golden;
// with -update it rewrites the golden instead.
func pinGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	gz := strings.HasSuffix(path, ".gz")
	if *updateGolden {
		data := got
		if gz {
			var buf bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
			zw.Write(got)
			zw.Close()
			data = buf.Bytes()
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if gz {
		zr, err := gzip.NewReader(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if want, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		if len(got)+len(want) > 1<<16 {
			t.Errorf("output drifted from %s (%d bytes, want %d)", path, len(got), len(want))
		} else {
			t.Errorf("output drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
		}
	}
}

// pinDigest compares the SHA-256 of got with the hex digest at path; with
// -update it rewrites the digest instead.
func pinDigest(t *testing.T, path string, got []byte) {
	t.Helper()
	sum := fmt.Sprintf("%x\n", sha256.Sum256(got))
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sum), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if sum != string(want) {
		t.Errorf("output (%d bytes) drifted from the digest in %s", len(got), path)
	}
}

// runCLI re-executes the test binary as paella-sim with args and returns
// its stdout, stderr and exit status.
func runCLI(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("paella-sim %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.Bytes(), errOut.Bytes(), code
}
