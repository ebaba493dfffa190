package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// childEnv makes the test binary run main() instead of the tests: each
// case re-executes the binary with its paella-trace arguments, so main()
// is exercised exactly as the CLI runs it (subcommand dispatch, flag
// parsing, os.Exit on fatal).
const childEnv = "PAELLA_TRACE_TEST_CHILD"

var updateGolden = flag.Bool("update", false, "rewrite testdata/stdout goldens")

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliCases are the pinned paella-trace invocations: the SM timeline of
// each system at the README shape and at Figure 1's shape, its JSON
// export, the default workload listing, counter telemetry with a CSV
// export, and the latency-anatomy report over a committed record dump. An
// argument "@out<ext>" is replaced by a fresh temporary path; the file
// written there is pinned by SHA-256 in testdata/out/<name>.sha256.
var cliCases = []cliCase{
	{name: "gpu-paella", args: []string{"gpu", "-system", "Paella", "-jobs", "6"}},
	{name: "gpu-cuda-ms", args: []string{"gpu", "-system", "CUDA-MS", "-jobs", "6"}},
	{name: "gpu-cuda-ss", args: []string{"gpu", "-system", "CUDA-SS", "-jobs", "6"}},
	{name: "gpu-paella-fig1", args: fig1Args("Paella")},
	{name: "gpu-cuda-ms-fig1", args: fig1Args("CUDA-MS")},
	{name: "gpu-cuda-ss-fig1", args: fig1Args("CUDA-SS")},
	{name: "gpu-json", args: []string{"gpu", "-json"}, digest: true},
	{name: "workload", args: []string{"workload"}},
	{name: "workload-out", args: []string{"workload", "-out", "@out.json"}},
	{name: "timeline", args: []string{"timeline", "-jobs", "20",
		"-series", "dispatcher/ready jobs/value", "-csv", "@out.csv"}},
	{name: "report", args: []string{"report", "-topk", "3",
		"../paella-sim/testdata/stdout/tiny-json.txt"}},
}

// cliCase is one pinned invocation. Its stdout is pinned in
// testdata/stdout/<name>.txt, or by SHA-256 in
// testdata/stdout/<name>.sha256 when digest is set.
type cliCase struct {
	name   string
	args   []string
	digest bool
}

// fig1Args is Figure 1's scenario: 4 jobs × 3 kernels on 2 SMs.
func fig1Args(system string) []string {
	return []string{"gpu", "-system", system, "-jobs", "4", "-sms", "2", "-kernels", "3"}
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
				t.Fatalf("paella-trace %v: exit %d\n%s", tc.args, code, stderr)
			}
			// Output file paths are temporary; pin the report without them.
			if outPath != "" {
				stdout = bytes.ReplaceAll(stdout, []byte(outPath), []byte("OUT"))
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
			pinDigest(t, filepath.Join("testdata", "out", tc.name+".sha256"), got)
		})
	}
}

// pinGolden compares got with the golden at path; with -update it rewrites
// the golden instead.
func pinGolden(t *testing.T, path string, got []byte) {
	t.Helper()
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
		t.Errorf("output drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
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

// runCLI re-executes the test binary as paella-trace with args and returns
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
			t.Fatalf("paella-trace %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestRefusals checks that gpu refuses each out-of-range scenario, and
// workload each non-finite arrival parameter and a rate too low for the
// trace horizon, with one stderr line naming the problem and exit status
// 1, instead of panicking or printing an empty timeline or arrivals at the
// minimum time.
func TestRefusals(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"sms-zero", []string{"gpu", "-sms", "0"}, "sms must be at least 1, got 0"},
		{"sms-negative", []string{"gpu", "-sms", "-1"}, "sms must be at least 1, got -1"},
		{"kernels-zero", []string{"gpu", "-kernels", "0"}, "kernels must be at least 1, got 0"},
		{"jobs-zero", []string{"gpu", "-jobs", "0"}, "jobs must be in 1..26 (one letter per job), got 0"},
		{"jobs-past-z", []string{"gpu", "-system", "Paella", "-jobs", "30"}, "jobs must be in 1..26 (one letter per job), got 30"},
		{"unknown-system", []string{"gpu", "-system", "TPU"}, `unknown system "TPU"`},
		{"workload-nan-rate", []string{"workload", "-rate", "NaN"}, "workload: rate NaN"},
		{"workload-nan-sigma", []string{"workload", "-sigma", "NaN"}, "workload: sigma NaN"},
		{"workload-horizon-overflow", []string{"workload", "-rate", "1e-9", "-jobs", "5"}, "workload: trace horizon exceeds 400000.000s"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := runCLI(t, tc.args...)
			if code != 1 || len(stdout) != 0 || string(stderr) != tc.want+"\n" {
				t.Fatalf("paella-trace %v: exit %d, stdout %q, stderr %q; want exit 1 and stderr %q",
					tc.args, code, stdout, stderr, tc.want)
			}
		})
	}
}

// TestPaellaIsFig1Ideal checks that gpu -system Paella at Figure 1's shape
// draws the same timeline and makespan as the Ideal row of the pinned fig1
// report: both come from one scenario builder.
func TestPaellaIsFig1Ideal(t *testing.T) {
	stdout, stderr, code := runCLI(t, fig1Args("Paella")...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	report, err := os.ReadFile("../../internal/experiments/testdata/quick/fig1.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, ideal, ok := strings.Cut(string(report), "Ideal (Paella software-defined dispatch)  [makespan ")
	if !ok {
		t.Fatal("fig1 report has no Ideal row")
	}
	makespan, _, _ := strings.Cut(ideal, ",")
	_, rows, _ := strings.Cut(ideal, "\n")
	rows, _, _ = strings.Cut(rows, "\n\n")
	want := "Paella on 2 SMs — one column = 10µs:\n\n" + rows + "\n\nmakespan: " + makespan + "\n"
	if string(stdout) != want {
		t.Fatalf("gpu -system Paella:\n%swant fig1's Ideal row:\n%s", stdout, want)
	}
}
