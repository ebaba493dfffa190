package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// docExampleFiles are the documents whose paella-sim examples readers copy.
var docExampleFiles = []string{"../../README.md", "../../EXPERIMENTS.md", "../../docs/ARCHITECTURE.md"}

// docExample is one paella-sim invocation found in a document.
type docExample struct {
	line int
	args []string
}

// docExamples extracts every paella-sim invocation from the code in a
// markdown document: lines inside ``` fences or indented by four spaces,
// with `\` continuations joined. A command ends at a shell comment, pipe
// or redirection. Usage synopses, which carry [optional] or <placeholder>
// arguments, are skipped.
func docExamples(doc string) []docExample {
	var out []docExample
	lines := strings.Split(doc, "\n")
	fenced := false
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			fenced = !fenced
			continue
		}
		if !fenced && !strings.HasPrefix(lines[i], "    ") {
			continue
		}
		start, cmd := i+1, lines[i]
		for strings.HasSuffix(strings.TrimSpace(cmd), `\`) && i+1 < len(lines) {
			cmd = strings.TrimSuffix(strings.TrimSpace(cmd), `\`) + " " + lines[i+1]
			i++
		}
		fields := strings.Fields(cmd)
		switch {
		case len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" && fields[2] == "./cmd/paella-sim":
			fields = fields[3:]
		case len(fields) >= 1 && fields[0] == "paella-sim":
			fields = fields[1:]
		default:
			continue
		}
		args := []string{}
		for _, f := range fields {
			if f == "#" || f == "|" || strings.HasPrefix(f, ">") {
				break
			}
			args = append(args, f)
		}
		if strings.ContainsAny(strings.Join(args, " "), "[<") {
			continue
		}
		out = append(out, docExample{line: start, args: args})
	}
	return out
}

// TestDocExamplesParse runs parse on every paella-sim example in the
// README, EXPERIMENTS.md and docs/ARCHITECTURE.md, without running it: a
// documented command line must name only flags that exist and combine
// them as parse accepts.
func TestDocExamplesParse(t *testing.T) {
	total := 0
	for _, path := range docExampleFiles {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range docExamples(string(doc)) {
			total++
			var stderr bytes.Buffer
			if _, err := parse(ex.args, &stderr); err != nil {
				msg, _, _ := strings.Cut(stderr.String(), "\n")
				t.Errorf("%s:%d: paella-sim %s: %v %s", path, ex.line, strings.Join(ex.args, " "), err, msg)
			}
		}
	}
	if total < 10 {
		t.Fatalf("found %d paella-sim examples; the extractor is broken", total)
	}
}

// TestDocExamplesExtract pins the extractor on continuations, comments,
// redirections and synopses.
func TestDocExamplesExtract(t *testing.T) {
	doc := "prose paella-sim -nosuch\n" +
		"```\n" +
		"go run ./cmd/paella-sim -system Paella \\\n" +
		"        -jobs 10   # a comment\n" +
		"go run ./cmd/paella-sim -json > records.json\n" +
		"go run ./cmd/paella-trace gpu -jobs 6\n" +
		"```\n" +
		"    paella-sim -llm [-llm-static]\n" +
		"    paella-sim -replicas N -gateway <policy>\n" +
		"    paella-sim -gateway list\n"
	got := docExamples(doc)
	want := []docExample{
		{3, []string{"-system", "Paella", "-jobs", "10"}},
		{5, []string{"-json"}},
		{10, []string{"-gateway", "list"}},
	}
	if len(got) != len(want) {
		t.Fatalf("extracted %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].line != want[i].line || strings.Join(got[i].args, " ") != strings.Join(want[i].args, " ") {
			t.Fatalf("example %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
