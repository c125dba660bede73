package hostref

import (
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestSliceAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := New(workers)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		want := s.Checksum()
		allocs := testing.AllocsPerRun(5, func() {
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
		got := s.Checksum()
		s.Close()
		if allocs != 0 {
			t.Errorf("%d workers: Run allocates %.1f times per slice, want 0", workers, allocs)
		}
		if got != want {
			t.Errorf("%d workers: checksum changed between slices: %#x then %#x", workers, want, got)
		}
	}
}

// The yardstick must not depend on the program it measures.
func TestImportsStandardLibraryOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := build.Import(path, "", build.FindOnly)
			if err != nil {
				t.Fatalf("%s: import %q: %v", name, path, err)
			}
			if !pkg.Goroot {
				t.Errorf("%s imports %q, which is not in the standard library", name, path)
			}
		}
	}
}
