package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paella/internal/serving"
)

// TestRefusals runs command lines a mode would otherwise ignore in part,
// or that used to panic, and checks each exits 1 with one error line.
func TestRefusals(t *testing.T) {
	foreign := filepath.Join(t.TempDir(), "foreign.json")
	if err := os.WriteFile(foreign, []byte(`[{"at_ns":0,"model":"resnet18","client":0},`+
		`{"at_ns":1000,"model":"mobilenetv2","client":0}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid constant-traffic spec whose optional "tenants" field is
	// misspelled: a lenient decoder would run it single-tenant.
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(`{"shape":"constant","mix":{"Models":["resnet18"],"Weights":[1]},`+
		`"sigma":1,"base_rate_per_sec":3000,"jobs":20,"clients":4,"tenant":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	llmOnly := func(args ...string) []string { return append([]string{"-llm", "-jobs", "10"}, args...) }
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative-window", []string{"-replicas", "2", "-window", "-1us", "-jobs", "10", "-models", "resnet18"},
			"-window must be ≥ 0"},
		{"zero-replicas", []string{"-replicas", "0"}, "-replicas must be ≥ 1"},
		{"negative-replicas", []string{"-replicas", "-3", "-llm"}, "-replicas must be ≥ 1"},
		{"llm-autoscale", llmOnly("-autoscale", "queue-depth"), "-autoscale does not apply to -llm"},
		{"llm-trace-out", llmOnly("-trace-out", "@out.json", "-chaos", "0.5"), "does not apply to -llm"},
		{"llm-chaos", llmOnly("-chaos", "0.5"), "-chaos does not apply to -llm"},
		{"llm-faults", llmOnly("-faults", "plan.json"), "-faults does not apply to -llm"},
		{"llm-trace-csv", llmOnly("-trace-csv", "@out.csv"), "-trace-csv does not apply to -llm"},
		{"llm-traffic", llmOnly("-traffic", "diurnal"), "-traffic does not apply to -llm"},
		{"llm-trace", llmOnly("-trace", foreign), "-trace does not apply to -llm"},
		{"llm-per-model", llmOnly("-per-model"), "-per-model does not apply to -llm"},
		{"llm-zipf", llmOnly("-zipf", "1.1"), "-zipf does not apply to -llm"},
		{"llm-batch-window", llmOnly("-batch-window", "1ms"), "-batch-window does not apply to -llm"},
		{"llm-system", llmOnly("-system", "Clockwork"), "-system does not apply to -llm"},
		{"llm-models", llmOnly("-models", "resnet18"), "-models does not apply to -llm"},
		{"llm-window", llmOnly("-pd-split", "1:1", "-window", "1ms"), "-window does not apply to -llm"},
		{"single-window", []string{"-jobs", "10", "-window", "1ms"}, "-window sets the cluster engine's barrier interval"},
		{"system-llm", []string{"-system", "Paella-LLM"}, "-system Paella-LLM serves the generative workload: run -llm"},
		{"system-llm-static", []string{"-system", "Paella-LLM-static", "-jobs", "10"}, "run -llm -llm-static"},
		{"system-llm-pd", []string{"-system", "Paella-LLM-PD", "-replicas", "2"}, "run -llm -pd-split 1:1"},
		{"llm-min-replicas", llmOnly("-min-replicas", "2"), "-min-replicas and -max-replicas require -autoscale"},
		{"scale-interval", []string{"-replicas", "2", "-scale-interval", "1ms"}, "-scale-interval requires -autoscale"},
		{"negative-max-tokens", []string{"-max-tokens", "-1"}, "require -llm"},
		{"llm-negative-max-tokens", llmOnly("-max-tokens", "-5"), "-max-tokens must be ≥ 0"},
		{"nan-rate", []string{"-jobs", "20", "-rate", "NaN"}, "-rate must be finite"},
		{"nan-sigma", []string{"-jobs", "20", "-sigma", "NaN"}, "-sigma must be finite"},
		{"inf-rate", []string{"-jobs", "20", "-rate", "+Inf"}, "-rate must be finite"},
		{"nan-admit-rate", []string{"-admit-rate", "NaN", "-replicas", "2", "-tenants", "2"}, "-admit-rate must be finite"},
		{"negative-admit-rate", []string{"-admit-rate", "-5", "-replicas", "2", "-tenants", "2"}, "-admit-rate must be ≥ 0"},
		{"negative-slo", []string{"-slo", "-1ms"}, "-slo must be > 0"},
		{"negative-telemetry-window", []string{"-telemetry-window", "-1ms"}, "-telemetry-window must be > 0"},
		{"negative-zipf", []string{"-zipf", "-2"}, "-zipf must be ≥ 0"},
		{"nan-zipf", []string{"-zipf", "NaN"}, "-zipf must be finite"},
		{"negative-batch-window", []string{"-batch-window", "-1ms"}, "-batch-window must be ≥ 0"},
		{"zero-scale-interval", []string{"-autoscale", "queue-depth", "-scale-interval", "0"}, "-scale-interval must be > 0"},
		{"trace-foreign-model", []string{"-models", "resnet18", "-trace", foreign},
			`names model "mobilenetv2", which -models does not load`},
		{"traffic-unknown-field", []string{"-models", "resnet18", "-traffic", typo},
			`unknown field "tenant"`},
		{"horizon-overflow", []string{"-rate", "1e-9", "-jobs", "20", "-models", "resnet18"}, "trace horizon exceeds"},
		{"paella-batch-max-batch", []string{"-system", "Paella-batch", "-max-batch", "2"}, "-system Paella-batch fixes its batching"},
		{"paella-batch-window", []string{"-system", "Paella-batch", "-batch-window", "1ms"}, "-system Paella-batch fixes its batching"},
		{"triton-batch-window", []string{"-system", "Triton-batch", "-batch-window", "10ms"}, "-system Triton-batch fixes its batching"},
		{"triton-batch-max-batch", []string{"-system", "Triton-batch", "-max-batch", "4"}, "-system Triton-batch fixes its batching"},
		{"batch-window-alone", []string{"-batch-window", "1ms"}, "-batch-window requires -max-batch > 1"},
		{"batch-window-max-batch-1", []string{"-max-batch", "1", "-batch-window", "1ms"}, "-batch-window requires -max-batch > 1"},
	}
	for _, sys := range []string{"CUDA-SS", "CUDA-MS", "MPS", "Clockwork", "Triton", "Paella-SS", "Paella-MS-jbj", "Paella-MS-kbk"} {
		cases = append(cases, struct {
			name string
			args []string
			want string
		}{"max-batch-" + sys, []string{"-system", sys, "-max-batch", "4"}, "-max-batch applies to the gated Paella systems"})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if strings.HasPrefix(a, "@out") {
					args[i] = filepath.Join(dir, a[1:])
				}
			}
			stdout, stderr, code := runCLI(t, args...)
			if code != 1 || len(stdout) != 0 || bytes.Count(stderr, []byte("\n")) != 1 ||
				bytes.Contains(stderr, []byte("panic:")) || !bytes.Contains(stderr, []byte(tc.want)) {
				t.Fatalf("paella-sim %v: exit %d, stdout %q, stderr %q; want exit 1 and one line containing %q",
					tc.args, code, stdout, stderr, tc.want)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("a refused run wrote %s", entries[0].Name())
			}
		})
	}
}

// FuzzParseFlags feeds argument vectors through parse: line split on
// spaces, then one token per byte of picks drawn from every flag name and
// a set of typical values. parse must never panic, and every config it
// accepts must hold the invariants parse promises.
func FuzzParseFlags(f *testing.F) {
	var usage bytes.Buffer
	parse([]string{"-h"}, &usage)
	vocab := []string{"0", "1", "2", "-1", "0.5", "NaN", "+Inf", "1ms", "-1us", "true", "list", "queue-depth",
		"affinity", "1:1", "0:2", "synth:2", "resnet18", "Clockwork", "Paella-LLM", "p100", "diurnal", "t.json", "t.csv"}
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			vocab = append(vocab, strings.Fields(line)[0])
		}
	}
	for _, args := range []string{
		"",
		"-replicas 2 -window -1us -jobs 10 -models resnet18",
		"-llm -autoscale queue-depth",
		"-llm -pd-split 1:1 -gateway affinity -admit-rate 80",
		"-llm -replicas 2 -telemetry-out t.json",
		"-autoscale queue-depth -traffic diurnal -min-replicas 1 -max-replicas 4 -models synth:2",
		"-replicas 3 -gateway predicted-latency -tenants 3 -admit-rate 120 -vram 64",
		"-system Paella-batch -max-batch 8 -batch-window 1ms -per-model -json",
		"-models synth:0 -gpu p100",
		"-gateway list",
		"-h",
	} {
		f.Add(args, []byte(nil))
	}
	f.Add("-autoscale queue-depth", []byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, line string, picks []byte) {
		args := strings.Split(line, " ")
		for _, b := range picks {
			args = append(args, vocab[int(b)%len(vocab)])
		}
		c, err := parse(args, io.Discard)
		if err != nil || c.list != nil {
			return
		}
		if err := checkInvariants(c); err != nil {
			t.Fatalf("parse accepted %q: %v", args, err)
		}
	})
}

// checkInvariants reports the first promise of parse an accepted config
// breaks.
func checkInvariants(c config) error {
	def := func(flags map[string]bool) error {
		for name, atDefault := range flags {
			if !atDefault {
				return fmt.Errorf("-%s is set outside its mode", name)
			}
		}
		return nil
	}
	for name, x := range map[string]float64{"rate": c.rate, "sigma": c.sigma, "zipf": c.zipf,
		"chaos": c.chaos, "admit-rate": c.admitRate} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("-%s is %v", name, x)
		}
	}
	switch {
	case c.window < 0, c.zipf < 0, c.admitRate < 0, c.maxTokens < 0, c.batchWindow < 0:
		return errors.New("a negative -window, -zipf, -admit-rate, -max-tokens or -batch-window")
	case c.slo <= 0, c.telWindow <= 0, c.scaleInterval <= 0:
		return errors.New("a non-positive -slo, -telemetry-window or -scale-interval")
	case c.replicas < 1:
		return errors.New("-replicas below 1")
	case c.batchWindow > 0 && c.maxBatch <= 1:
		return errors.New("-batch-window without -max-batch > 1")
	case c.maxBatch != 0 && !gatedPaella[c.system]:
		return fmt.Errorf("-max-batch on -system %s", c.system)
	case c.llm != (c.mode == modeLLM), c.autoscale != "" && c.mode != modeElastic,
		c.mode == modeFleet && c.replicas < 2, c.mode == modeSingle && c.replicas != 1:
		return fmt.Errorf("mode %d does not match the flags", c.mode)
	}
	if c.mode == modeLLM {
		if err := def(map[string]bool{
			"system": c.system == "Paella", "models": c.models == "all", "zipf": c.zipf == 0,
			"trace": c.traceIn == "", "traffic": c.traffic == "", "batch-window": c.batchWindow == 0,
			"faults": c.faults == "", "chaos": c.chaos == 0, "trace-out": c.traceOut == "",
			"trace-csv": c.traceCSV == "", "per-model": !c.perModel, "autoscale": c.autoscale == "",
			"window": c.window == 50*time.Microsecond,
		}); err != nil {
			return err
		}
		if c.prefills < 1 || c.decodes < 0 {
			return fmt.Errorf("engine pools %d:%d", c.prefills, c.decodes)
		}
	} else if err := def(map[string]bool{
		"llm-static": !c.llmStatic, "max-tokens": c.maxTokens == 0, "kv-block": c.kvBlockKiB == 0,
		"pd-split": c.pdSplit == "",
	}); err != nil {
		return err
	} else if c.synth < 0 || c.synth == 0 && len(c.zoo) == 0 {
		return errors.New("no models")
	}
	if c.mode != modeElastic {
		if err := def(map[string]bool{
			"min-replicas": c.minReplicas == 1, "max-replicas": c.maxReplicas == 0,
			"scale-interval": c.scaleInterval == 5*time.Millisecond,
		}); err != nil {
			return err
		}
	}
	switch c.mode {
	case modeSingle:
		return def(map[string]bool{"gateway": c.gateway == "least-loaded", "admit-rate": c.admitRate <= 0,
			"window": c.window == 50*time.Microsecond, "system": !strings.HasPrefix(c.system, "Paella-LLM")})
	case modeFleet:
		return def(map[string]bool{"system": c.system == "Paella", "trace-csv": c.traceCSV == ""})
	case modeElastic:
		return def(map[string]bool{"system": c.system == "Paella", "faults": c.faults == "",
			"chaos": c.chaos <= 0, "admit-rate": c.admitRate <= 0, "trace-out": c.traceOut == "",
			"trace-csv": c.traceCSV == ""})
	}
	return nil
}

// TestParseHelp checks -h is reported as flag.ErrHelp, not a failure.
func TestParseHelp(t *testing.T) {
	if _, err := parse([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parse -h: %v", err)
	}
	if _, err := parse([]string{"-nosuchflag"}, io.Discard); !errors.Is(err, errUsage) {
		t.Fatalf("parse -nosuchflag: %v", err)
	}
}

// TestSystemList checks that -system list names exactly the systems
// -system accepts, and that it points each generative system at -llm.
func TestSystemList(t *testing.T) {
	c, err := parse([]string{"-system", "list"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range c.list {
		name := strings.Fields(line)[0]
		listed = append(listed, name)
		if _, err := serving.NewSystem(name); err != nil {
			t.Errorf("-system list names %s, which -system refuses: %v", name, err)
		}
		if strings.HasPrefix(name, "Paella-LLM") != strings.Contains(line, "run -llm") {
			t.Errorf("line %q: generative systems, and only they, say they run under -llm", line)
		}
	}
	var accepted []string
	for _, row := range serving.Systems() {
		accepted = append(accepted, row.Name)
	}
	if strings.Join(listed, " ") != strings.Join(accepted, " ") || len(listed) != 17 {
		t.Fatalf("-system list names %v, want the 17 systems %v", listed, accepted)
	}
}
