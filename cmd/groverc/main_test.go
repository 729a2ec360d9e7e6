package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"grover/internal/apps"
)

// TestCorpusGolden runs groverc over the 11 app sources with their
// defines three ways — the Grover pass, the same with -ir, and a
// two-step rewrite plan — and compares stdout and stderr, with each exit
// status, byte for byte with testdata/corpus.golden, which the groverc
// that compiled and transformed on its own recorded.
func TestCorpusGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "corpus.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// Each file is named by its app ID, relative to the working directory,
	// so that positions in the output do not depend on where the test runs.
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var got bytes.Buffer
	for _, app := range apps.All() {
		file := app.ID + ".cl"
		if err := os.WriteFile(file, []byte(app.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		var defines []string
		for name, v := range app.Defines {
			defines = append(defines, "-D", name+"="+v)
		}
		slices.Sort(defines)
		for _, mode := range [][]string{nil, {"-ir"}, {"-rewrite", "stage-local(ls=64),grover"}} {
			args := slices.Concat(defines, mode, []string{file})
			fmt.Fprintf(&got, "$ groverc %s\n", strings.Join(args, " "))
			fmt.Fprintf(&got, "exit %d\n", run(args, &got, &got))
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d: got\n\t%s\nwant\n\t%s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gotLines), len(wantLines))
	}
}
