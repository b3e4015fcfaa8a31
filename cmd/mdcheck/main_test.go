package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDocs(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCleanDocsPass(t *testing.T) {
	dir := writeDocs(t, map[string]string{
		"README.md": "# Top\n\nSee [design](docs/DESIGN.md#deep-dive) and " +
			"[below](#local-section) and [external](https://example.com).\n\n" +
			"## Local section\n\ntext\n",
		"docs/DESIGN.md": "# Design\n\n## Deep dive\n\nback to [readme](../README.md)\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "0 broken") {
		t.Fatalf("summary = %q", stdout.String())
	}
}

func TestBrokenFileLinkFails(t *testing.T) {
	dir := writeDocs(t, map[string]string{
		"a.md": "# A\n\n[gone](missing.md)\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "missing.md") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

func TestBrokenAnchorFails(t *testing.T) {
	dir := writeDocs(t, map[string]string{
		"a.md": "# A\n\n[bad](b.md#no-such-heading)\n",
		"b.md": "# B\n\n## Real heading\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no-such-heading") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Deep dive":                   "deep-dive",
		"12. Online serving: the map": "12-online-serving-the-map",
		"`code` in Heading!":          "code-in-heading",
		"Under_score and-hyphen":      "under_score-and-hyphen",
		"Sync or Async? CPU or GPU?":  "sync-or-async-cpu-or-gpu",
		"Which binary do I want?":     "which-binary-do-i-want",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDuplicateHeadingsGetSuffixes(t *testing.T) {
	dir := writeDocs(t, map[string]string{
		"a.md": "# T\n\n## Setup\n\n## Setup\n\n[first](#setup) [second](#setup-1)\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
}

func TestCodeFencesAndSpansIgnored(t *testing.T) {
	dir := writeDocs(t, map[string]string{
		"a.md": "# T\n\n```\n[not a link](nowhere.md)\n# not a heading\n```\n\n" +
			"Inline `[also not](gone.md)` code.\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
}

func TestCodeSpanPaths(t *testing.T) {
	cases := []struct {
		name, doc, body string
		want            int
	}{
		{"existing path", "docs/a.md", "See `internal/core/hogwild.go:42` and `./cmd/tool -flag x`.\n", 0},
		{"missing path", "docs/a.md", "See `internal/gone` for the model.\n", 1},
		{"package symbol", "docs/a.md", "See `internal/core.Engine` and `internal/core.Engine.RunEpoch`.\n", 0},
		{"missing package symbol", "docs/a.md", "See `internal/gone.Engine`.\n", 1},
		{"not a path", "docs/a.md", "Run `go run ./cmd/gone` or read `internal`.\n", 0},
		{"exempt file", "CHANGES.md", "Deleted `internal/gone`.\n", 0},
		{"checked root file", "README.md", "See `internal/gone`.\n", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := writeDocs(t, map[string]string{
				"internal/core/hogwild.go": "package core\n",
				"cmd/tool/main.go":         "package main\n",
				c.doc:                      "# T\n\n" + c.body,
			})
			var stdout, stderr bytes.Buffer
			if code := run([]string{dir}, &stdout, &stderr); code != c.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.want, stderr.String())
			}
			if c.want == 1 && !strings.Contains(stderr.String(), "stale path") {
				t.Fatalf("stderr = %q", stderr.String())
			}
		})
	}
}

func TestRepoDocsAreClean(t *testing.T) {
	// The real gate: every markdown file in this repository must pass.
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("repo root not found")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{root}, &stdout, &stderr); code != 0 {
		t.Fatalf("repo docs have broken links or stale paths (exit %d):\n%s", code, stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "nope")}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing path: exit %d, want 2", code)
	}
}
