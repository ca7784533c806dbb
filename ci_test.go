package dblsh

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunsTestsThatExist: a -run or -bench pattern that matches nothing
// passes without a word, so a CI step that names a deleted test stops
// checking anything and nobody notices. Every Test, Benchmark, Fuzz or
// Example name the workflow cites must begin a function some _test.go file
// declares, as an unanchored -run pattern of that name would match it.
func TestCIRunsTestsThatExist(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	var declared []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "vendor" || strings.HasPrefix(d.Name(), ".") && path != "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared = append(declared, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)\w*`).FindAllString(string(ci), -1)
	if len(cited) == 0 {
		t.Fatal("ci.yml cites no test: the pattern this test reads it with is stale")
	}
	for _, name := range cited {
		found := false
		for _, d := range declared {
			found = found || strings.HasPrefix(d, name)
		}
		if !found {
			t.Errorf("ci.yml cites %s, which no _test.go file declares", name)
		}
	}
}
