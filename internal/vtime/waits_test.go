package vtime

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// waitKinds are the hand-rolled blocking idioms the census counts: each is
// a wait, or a thread that waits, that a deterministic scheduler would have
// to see, and that should instead be a primitive of this package.
var waitKinds = []string{"make(chan", "select", "sync.Cond", "sync.WaitGroup", "go"}

// waitSites counts waitKinds in one parsed file: channel makes, select
// statements, conds (a sync.NewCond call, or a sync.Cond held by value; a
// *sync.Cond only points at one of those), sync.WaitGroup uses and go
// statements.
func waitSites(file *ast.File) map[string]int {
	n := make(map[string]int)
	ast.Inspect(file, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.StarExpr:
			if sel, ok := x.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cond" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
					return false
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
				if _, ok := x.Args[0].(*ast.ChanType); ok {
					n["make(chan"]++
				}
			}
		case *ast.SelectStmt:
			n["select"]++
		case *ast.GoStmt:
			n["go"]++
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "sync" {
				switch x.Sel.Name {
				case "Cond", "NewCond":
					n["sync.Cond"]++
				case "WaitGroup":
					n["sync.WaitGroup"]++
				}
			}
		}
		return true
	})
	return n
}

// census counts waitKinds in every non-test Go file under dir/internal,
// outside internal/vtime and testdata. Keys are "path kind", the path
// slash-separated and relative to dir.
func census(dir string) (map[string]int, error) {
	counts := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(dir, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == "testdata" || rel == "internal/vtime" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for kind, c := range waitSites(file) {
			counts[rel+" "+kind] = c
		}
		return nil
	})
	return counts, err
}

// parseWaits reads waits.txt: one "file kind count reason" line per
// surviving site group; blank lines and lines starting with # are skipped.
func parseWaits(text string) (map[string]int, error) {
	listed := make(map[string]int)
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f := strings.SplitN(s, " ", 4)
		if len(f) < 4 || strings.TrimSpace(f[3]) == "" {
			return nil, fmt.Errorf("line %d: want \"file kind count reason\", got %q", line, s)
		}
		if !slices.Contains(waitKinds, f[1]) {
			return nil, fmt.Errorf("line %d: kind %q is not one of %v", line, f[1], waitKinds)
		}
		c, err := strconv.Atoi(f[2])
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("line %d: count %q is not a positive integer", line, f[2])
		}
		key := f[0] + " " + f[1]
		if _, dup := listed[key]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", line, key)
		}
		listed[key] = c
	}
	return listed, sc.Err()
}

// TestWaitCensus holds the hand-rolled waits outside this package to the
// survivors waits.txt lists with a reason. A new site fails (move it
// behind a vtime primitive, or list it), and so does a listed count above
// the real one: the list shrinks with the code. -v prints the survivors.
func TestWaitCensus(t *testing.T) {
	raw, err := os.ReadFile("waits.txt")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := parseWaits(string(raw))
	if err != nil {
		t.Fatalf("waits.txt: %v", err)
	}
	counts, err := census(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(counts)+len(listed))
	for k := range counts {
		keys = append(keys, k)
	}
	for k := range listed {
		if _, ok := counts[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	total := make(map[string]int)
	for _, k := range keys {
		got, want := counts[k], listed[k]
		switch {
		case want == 0:
			t.Errorf("%s: %d sites, not listed in waits.txt: use a vtime primitive, or list it with a reason", k, got)
		case got > want:
			t.Errorf("%s: %d sites, waits.txt allows %d", k, got, want)
		case got < want:
			t.Errorf("%s: %d sites, waits.txt lists %d: lower the entry", k, got, want)
		}
		total[k[strings.LastIndexByte(k, ' ')+1:]] += got
	}
	for _, kind := range waitKinds {
		t.Logf("%-15s %d", kind, total[kind])
	}
	if t.Failed() || testing.Verbose() {
		t.Logf("waits.txt:\n%s", raw)
	}
}

// TestWaitSitesOnFixture pins what the census counts on a source it can see
// whole.
func TestWaitSitesOnFixture(t *testing.T) {
	const src = `package p

import "sync"

type gate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	value sync.Cond
	wg    sync.WaitGroup
}

func f(g *gate) {
	g.cond = sync.NewCond(&g.mu)
	g.value.L = &g.mu
	done := make(chan struct{})
	_ = make([]chan int, 4) // a slice of channels: not a channel make
	go func() { close(done) }()
	select {
	case <-done:
	default:
	}
	g.wg.Wait()
}
`
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := waitSites(file)
	want := map[string]int{"make(chan": 1, "select": 1, "sync.Cond": 2, "sync.WaitGroup": 1, "go": 1}
	for _, kind := range waitKinds {
		if got[kind] != want[kind] {
			t.Errorf("%s: counted %d, want %d", kind, got[kind], want[kind])
		}
	}
}
