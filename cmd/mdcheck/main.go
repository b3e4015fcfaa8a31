// Command mdcheck is a link-and-anchor checker for the repository's
// markdown documentation. It walks the given files or directories
// (default: the current directory), extracts inline links from every
// .md file, and verifies that
//
//   - relative file links resolve to an existing file or directory,
//   - fragment links (#section, FILE.md#section) name a real heading in
//     the target document, using GitHub's heading-slug rules, and
//   - code spans that start with a repository path (cmd/, internal/, ...)
//     name one that exists under the scanned directory, so prose cannot
//     keep citing deleted code.
//
// External links (http://, https://, mailto:) are not fetched — the tool
// is offline by design so it can run in CI without network access.
//
// Usage:
//
//	mdcheck [-q] [path ...]
//
// Exit status is 0 when every link and path resolves, 1 when any is
// broken, 2 on usage errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mdcheck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	quiet := fl.Bool("q", false, "print only broken links, not the summary")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	roots := fl.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}

	files, base, err := collect(roots)
	if err != nil {
		fmt.Fprintf(stderr, "mdcheck: %v\n", err)
		return 2
	}
	if len(files) == 0 {
		fmt.Fprintln(stderr, "mdcheck: no markdown files found")
		return 2
	}

	docs := make(map[string]*doc, len(files))
	for _, f := range files {
		d, err := parseFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "mdcheck: %v\n", err)
			return 2
		}
		docs[f] = d
	}

	broken, total := 0, 0
	for _, f := range files {
		for _, l := range docs[f].links {
			total++
			if msg := check(f, l, docs); msg != "" {
				broken++
				fmt.Fprintf(stderr, "%s:%d: %s\n", f, l.line, msg)
			}
		}
		if pathExempt(base[f], f) {
			continue
		}
		for _, sp := range docs[f].spans {
			if msg := checkPath(base[f], sp.target); msg != "" {
				broken++
				fmt.Fprintf(stderr, "%s:%d: %s\n", f, sp.line, msg)
			}
		}
	}
	if !*quiet {
		fmt.Fprintf(stdout, "mdcheck: %d files, %d links, %d broken\n",
			len(files), total, broken)
	}
	if broken > 0 {
		return 1
	}
	return 0
}

// collect expands files and directories into a sorted list of .md paths,
// skipping dot-directories (.git, .github holds no docs we link to by
// heading) and vendor-style trees. base maps each file to the directory
// its code-span paths resolve against: the directory root it was found
// under, or its own directory when named directly.
func collect(roots []string) (files []string, base map[string]string, err error) {
	base = map[string]string{}
	add := func(p, dir string) {
		p = filepath.Clean(p)
		if _, seen := base[p]; !seen {
			base[p] = dir
			files = append(files, p)
		}
	}
	for _, root := range roots {
		info, err := os.Stat(root)
		if err != nil {
			return nil, nil, err
		}
		if !info.IsDir() {
			add(root, filepath.Dir(root))
			continue
		}
		err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if p != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "node_modules") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.EqualFold(filepath.Ext(name), ".md") {
				add(p, root)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	sort.Strings(files)
	return files, base, nil
}

type link struct {
	target string
	line   int
}

type doc struct {
	anchors map[string]bool
	links   []link
	spans   []link // inline code spans, target = the span's text
}

// linkRE matches inline links [text](target). Images ![alt](target) match
// too via the optional leading "!", which is what we want — image targets
// must exist as files just the same.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

var codeSpanRE = regexp.MustCompile("`[^`]*`")

func parseFile(path string) (*doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

func parse(r io.Reader) (*doc, error) {
	d := &doc{anchors: map[string]bool{}}
	slugCount := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inFence := false
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		trimmed := strings.TrimSpace(text)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		if strings.HasPrefix(text, "#") {
			level := 0
			for level < len(text) && text[level] == '#' {
				level++
			}
			if level <= 6 && level < len(text) && (text[level] == ' ' || text[level] == '\t') {
				s := slugify(strings.TrimSpace(text[level:]))
				// GitHub disambiguates duplicate headings with -1, -2, ...
				if n := slugCount[s]; n > 0 {
					d.anchors[fmt.Sprintf("%s-%d", s, n)] = true
				} else {
					d.anchors[s] = true
				}
				slugCount[s]++
				continue
			}
		}
		for _, m := range codeSpanRE.FindAllString(text, -1) {
			d.spans = append(d.spans, link{target: strings.Trim(m, "`"), line: line})
		}
		clean := codeSpanRE.ReplaceAllString(text, "``")
		for _, m := range linkRE.FindAllStringSubmatch(clean, -1) {
			d.links = append(d.links, link{target: m[1], line: line})
		}
	}
	return d, sc.Err()
}

// slugify applies GitHub's heading-anchor rules: lowercase, strip inline
// markup ticks, drop everything but letters/digits/spaces/hyphens/underscores,
// spaces become hyphens.
func slugify(heading string) string {
	heading = strings.ReplaceAll(heading, "`", "")
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// check resolves one link found in file; it returns "" when the link is
// fine and a human-readable complaint otherwise.
func check(file string, l link, docs map[string]*doc) string {
	t := l.target
	switch {
	case strings.HasPrefix(t, "http://"), strings.HasPrefix(t, "https://"),
		strings.HasPrefix(t, "mailto:"), strings.HasPrefix(t, "ftp://"):
		return "" // external: not fetched
	case strings.HasPrefix(t, "<") || t == "":
		return ""
	}

	path, frag := t, ""
	if i := strings.IndexByte(t, '#'); i >= 0 {
		path, frag = t[:i], t[i+1:]
	}

	target := file
	if path != "" {
		target = filepath.Join(filepath.Dir(file), filepath.FromSlash(path))
		info, err := os.Stat(target)
		if err != nil {
			return fmt.Sprintf("broken link %q: %s does not exist", t, target)
		}
		if info.IsDir() || frag == "" {
			if frag != "" {
				return fmt.Sprintf("broken link %q: anchor on a directory", t)
			}
			return ""
		}
	}
	if frag == "" {
		return ""
	}

	d, ok := docs[filepath.Clean(target)]
	if !ok {
		// Fragment into a file outside the scanned set (or a non-markdown
		// file): parse it on demand so anchors still get verified.
		if !strings.EqualFold(filepath.Ext(target), ".md") {
			return ""
		}
		var err error
		d, err = parseFile(target)
		if err != nil {
			return fmt.Sprintf("broken link %q: %v", t, err)
		}
		docs[filepath.Clean(target)] = d
	}
	if !d.anchors[strings.ToLower(frag)] {
		return fmt.Sprintf("broken anchor %q: no heading #%s in %s", t, frag, target)
	}
	return ""
}

// pathPrefixes mark a code span as naming a repository path.
var pathPrefixes = []string{"cmd/", "./cmd/", "internal/", "examples/", "scripts/", "docs/"}

// pathChecked names the root-level documents that describe the current
// tree. Every other root-level document (CHANGES, ROADMAP, PAPERS,
// SNIPPETS, ...) is history, a plan or other repositories' code, whose
// code spans may cite paths that are gone or not yet written; documents
// below the root are always checked.
var pathChecked = map[string]bool{
	"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "PAPER.md": true,
}

// pathExempt reports whether f, found under root, skips the path rule.
func pathExempt(root, f string) bool {
	return filepath.Dir(f) == filepath.Clean(root) && !pathChecked[filepath.Base(f)]
}

var (
	lineSuffixRE   = regexp.MustCompile(`:\d+(-\d+)?$`)
	symbolSuffixRE = regexp.MustCompile(`\.[A-Z]\w*(\.\w+)*$`)
)

// checkPath resolves the path a code span starts with (its first word,
// less a trailing :line) against dir; a glob must match something, and a
// trailing .Symbol is accepted when the package directory exists. It
// returns "" when the span names no repository path or an existing one.
func checkPath(dir, span string) string {
	fields := strings.Fields(span)
	if len(fields) == 0 || !slices.ContainsFunc(pathPrefixes, func(p string) bool {
		return strings.HasPrefix(fields[0], p)
	}) {
		return ""
	}
	p := lineSuffixRE.ReplaceAllString(fields[0], "")
	if m, _ := filepath.Glob(filepath.Join(dir, filepath.FromSlash(p))); len(m) > 0 {
		return ""
	}
	if loc := symbolSuffixRE.FindStringIndex(p); loc != nil {
		if info, err := os.Stat(filepath.Join(dir, filepath.FromSlash(p[:loc[0]]))); err == nil && info.IsDir() {
			return ""
		}
	}
	return fmt.Sprintf("stale path %q: %s does not exist", span, p)
}
