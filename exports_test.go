package bitswapmon_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// An exported name under internal/ is surface: something outside its
// package is meant to call it. TestExportsHaveCallers type-checks every
// non-test file of cmd/, internal/, examples/ and bench/ and fails on each
// function or method under internal/ that no non-test code uses, unless it
// is exported and testOnlyExports lists it with a reason. Unexported names
// are held to the same rule, so a name cannot pass by being unexported
// while only tests call it. A name only tests use is either deleted, with
// what only it reached, or moved into the tests that use it.
//
// A use is any reference outside the function's own body: a call, a method
// value or a function stored in a table. A method also counts as used when
// its receiver type implements an interface whose method non-test code
// calls, or one of the standard library interfaces in stdCallbacks.

// exportReason says why an exported name may have no non-test caller.
type exportReason int

const (
	// roadmapItem: a ROADMAP item names its future caller, or its deletion
	// together with the benchmark's last use of it.
	roadmapItem exportReason = iota + 1
	// testOracle: it is a reference implementation tests compare against.
	testOracle
	// crossPackageTest: tests in another package need it and cannot
	// rebuild it from the package's other exported names.
	crossPackageTest
)

// testOnlyExports are the exported names under internal/ allowed to have
// no caller outside tests, keyed as the guard prints them.
var testOnlyExports = map[string]struct {
	reason exportReason
	note   string
}{
	"attacks.BuildIDW":                  {roadmapItem, "item 7 scores the Sec. VI attacks in every run"},
	"attacks.(*IDWIndex).Wanters":       {roadmapItem, "item 7"},
	"attacks.(*IDWIndex).UniqueWanters": {roadmapItem, "item 7"},
	"attacks.(*IDWIndex).CIDCount":      {roadmapItem, "item 7"},
	"attacks.FindCancellations":         {roadmapItem, "item 7"},
	"attacks.ConfirmDownloads":          {roadmapItem, "item 7"},
	"attacks.NewProber":                 {roadmapItem, "item 7"},
	"estimate.CommitteeOccupancySets":   {roadmapItem, "item 8's secvc report"},
	"estimate.PairwiseSets":             {roadmapItem, "item 8's secvc report"},
	"simnet.(*Network).Lookahead":       {roadmapItem, "item 11 decides the sharded engine, and deletes this with it"},
	"ingest.(*OnlineStats).BucketSize":  {roadmapItem, "item 4 moves bench/ off OnlineStats and deletes stats.go"},
	"ingest.(*OnlineStats).Buckets":     {roadmapItem, "item 4"},
	"ingest.(*OnlineStats).First":       {roadmapItem, "item 4"},
	"ingest.(*OnlineStats).Last":        {roadmapItem, "item 4"},
	"ingest.(*OnlineStats).Merge":       {roadmapItem, "item 4"},
	"ingest.(*OnlineStats).Requests":    {roadmapItem, "item 4"},
	"ingest.(*OnlineStats).TypeCounts":  {roadmapItem, "item 4"},
	"popularity.Compute":                {testOracle, "the batch scores the streaming Counter and the fig5 and popularity reports are tested against"},
	"simnet.(*Table).Disconnect":        {crossPackageTest, "engine, node and bitswap tests drop one connection; SetOnline drops them all"},
	"bitswap.(*Engine).WantlistOf":      {crossPackageTest, "gateway, monitor and node tests read a peer's ledger, which nothing else exposes"},
	"otrace.(*Tracer).Reset":            {crossPackageTest, "BenchmarkReplayDrive empties the rings between iterations; a new Tracer would regrow them inside the timed loop"},
}

// stdCallbacks are the standard library interfaces whose methods the
// standard library calls on values it is handed.
var stdCallbacks = [][2]string{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
}

func TestExportsHaveCallers(t *testing.T) {
	// The source importer reads the standard library through build.Default;
	// without cgo it type-checks the pure-Go files and runs no C tool.
	saved := build.Default
	t.Cleanup(func() { build.Default = saved })
	build.Default.CgoEnabled = false
	ctxt := build.Default
	if raceEnabled {
		ctxt.BuildTags = append(slices.Clone(ctxt.BuildTags), "race")
	}

	l := &modLoader{
		fset:  token.NewFileSet(),
		ctxt:  ctxt,
		pkgs:  map[string]*modPackage{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		decls: map[*types.Func]*ast.FuncDecl{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, root := range []string{"cmd", "internal", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			_, err = l.load(filepath.ToSlash(path))
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	used := l.uses()
	for _, fn := range l.implemented(used, l.stdInterfaces(t)) {
		used[fn] = true
	}
	var unused []string
	listed := map[string]bool{}
	for fn, d := range l.decls {
		if !strings.HasPrefix(fn.Pkg().Path(), "bitswapmon/internal/") || d.Name.Name == "init" {
			continue
		}
		name := funcName(fn)
		_, ok := testOnlyExports[name]
		listed[name] = ok && fn.Exported()
		switch {
		case used[fn] && ok:
			t.Errorf("testOnlyExports lists %s, but non-test code uses it: drop the entry", name)
		case !used[fn] && !listed[name]:
			unused = append(unused, name)
		}
	}
	for name, e := range testOnlyExports {
		if !listed[name] {
			t.Errorf("testOnlyExports lists %s, which is no exported function under internal/", name)
		}
		if e.reason < roadmapItem || e.reason > crossPackageTest || e.note == "" {
			t.Errorf("testOnlyExports[%s] gives no reason", name)
		}
	}
	slices.Sort(unused)
	for _, name := range unused {
		t.Errorf("only tests use %s: delete it or move it into the tests", name)
	}
}

// modLoader type-checks the module's packages from source, each once, with
// one types.Info over all of them, and the standard library through the
// source importer. decls holds every function and method it declared.
type modLoader struct {
	fset  *token.FileSet
	ctxt  build.Context
	std   types.Importer
	pkgs  map[string]*modPackage // by directory, slash-separated
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
}

type modPackage struct {
	pkg *types.Package
	err error
}

// load type-checks the non-test files go/build picks in dir.
func (l *modLoader) load(dir string) (*types.Package, error) {
	if p, ok := l.pkgs[dir]; ok {
		if p.pkg == nil && p.err == nil {
			return nil, errors.New("import cycle through " + dir)
		}
		return p.pkg, p.err
	}
	p := &modPackage{}
	l.pkgs[dir] = p
	p.pkg, p.err = l.check(dir)
	return p.pkg, p.err
}

func (l *modLoader) check(dir string) (*types.Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check("bitswapmon/"+dir, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				l.decls[l.info.Defs[fd.Name].(*types.Func)] = fd
			}
		}
	}
	return pkg, nil
}

// Import resolves the module's own paths (bench/ is bitswapmon/bench) to
// their directories and everything else to the standard library.
func (l *modLoader) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, "bitswapmon/"); ok {
		return l.load(dir)
	}
	return l.std.Import(path)
}

// uses returns every function and method referenced outside its own
// declaration, by its generic origin.
func (l *modLoader) uses() map[*types.Func]bool {
	used := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d := l.decls[fn]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
			continue
		}
		used[fn] = true
	}
	return used
}

// stdInterfaces returns stdCallbacks and error as interface types.
func (l *modLoader) stdInterfaces(t *testing.T) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, c := range stdCallbacks {
		pkg, err := l.std.Import(c[0])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pkg.Scope().Lookup(c[1]).Type().Underlying().(*types.Interface))
	}
	return out
}

// implemented returns the methods of the module's named types that
// implement a used interface method, or any method of the given interfaces.
func (l *modLoader) implemented(used map[*types.Func]bool, whole []*types.Interface) []*types.Func {
	type call struct {
		iface *types.Interface
		name  string
		pkg   *types.Package
	}
	var calls []call
	for _, iface := range whole {
		for m := range iface.Methods() {
			calls = append(calls, call{iface, m.Name(), m.Pkg()})
		}
	}
	for fn := range used {
		recv := fn.Signature().Recv()
		if recv != nil && types.IsInterface(recv.Type()) {
			calls = append(calls, call{recv.Type().Underlying().(*types.Interface), fn.Name(), fn.Pkg()})
		}
	}
	var out []*types.Func
	for _, p := range l.pkgs {
		if p.pkg == nil {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams() != nil {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for _, c := range calls {
				if !types.Implements(ptr, c.iface) {
					continue
				}
				if m, ok := ms.Lookup(c.pkg, c.name).Obj().(*types.Func); ok {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// funcName prints fn as pkg.Func, pkg.T.Method or pkg.(*T).Method, with
// pkg relative to internal/.
func funcName(fn *types.Func) string {
	pkg := strings.TrimPrefix(fn.Pkg().Path(), "bitswapmon/internal/")
	recv := fn.Signature().Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t := recv.Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), "*"
	}
	name := t.(*types.Named).Obj().Name()
	if ptr != "" {
		return pkg + ".(*" + name + ")." + fn.Name()
	}
	return pkg + "." + name + "." + fn.Name()
}
