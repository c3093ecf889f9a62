package main

import (
	"path/filepath"
	"strings"
	"testing"

	"petscfun3d/internal/lint"
)

// TestCodegenFixtureFails pins the CLI's exit-1 behavior on the
// violation fixture: running fun3dlint from inside
// internal/lint/testdata/src/codegen (its own module, whose archive the
// go command builds and objdump reads) resolves that module's root and
// reports the surviving hot-loop bounds check and the lost inline. The
// test drives the same entry points main() uses — FindModuleRoot on the
// working directory, then RunPatterns — so a regression that silently
// skips the fixture (for example an archive lookup that finds nothing)
// fails here rather than leaving the gate toothless.
func TestCodegenFixtureFails(t *testing.T) {
	repoRoot, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(repoRoot, "internal", "lint", "testdata", "src", "codegen")
	fixtureRoot, err := lint.FindModuleRoot(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if fixtureRoot != fixture {
		t.Fatalf("fixture module root = %s, want %s (the fixture must stay its own module so its archive carries the fixture/codegen symbols)", fixtureRoot, fixture)
	}
	findings, err := lint.RunPatterns(fixtureRoot, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	var codegenMsgs []string
	for _, f := range findings {
		if f.Analyzer == "codegen" {
			codegenMsgs = append(codegenMsgs, f.Message)
		}
	}
	if len(codegenMsgs) == 0 {
		t.Fatal("fixture produced no codegen findings; fun3dlint -only codegen would exit 0 on the violation fixture")
	}
	for _, want := range []string{"bounds check survives", "must-inline helper"} {
		found := false
		for _, m := range codegenMsgs {
			if strings.Contains(m, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fixture findings missing the injected %q violation; got:\n  %s", want, strings.Join(codegenMsgs, "\n  "))
		}
	}
}

// TestRepositoryExitsClean is the exit-0 half of the CLI contract: the
// suite over the repository's own packages reports nothing, so
// `fun3dlint -only codegen ./...` (and `make lint`) exit 0. The
// whole-suite repository gates live in internal/lint
// (TestRepositoryLintsClean, TestRepositoryCodegenClean); this
// assertion exists here so the CLI package's own tests state both
// halves of the fixture contract side by side.
func TestRepositoryExitsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole module, disassembling the hot packages; skipped in -short")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.RunPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		var sb strings.Builder
		for _, f := range findings {
			sb.WriteString("  ")
			sb.WriteString(f.String())
			sb.WriteString("\n")
		}
		t.Fatalf("repository does not lint clean (%d findings):\n%s", len(findings), sb.String())
	}
}
