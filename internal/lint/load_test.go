package lint

import (
	"go/types"
	"path/filepath"
	"testing"
)

// TestLoaderGenericsAndAtomics pins the offline loader against the
// language features the analyzed code actually uses: type parameters
// with union constraints, generic instantiation, and the sync/atomic
// compare-and-swap idiom (the mpi.Request.claim pattern). The loader
// must produce a fully type-checked package — no missing objects, no
// half-populated info maps — and the full suite must run over it
// without findings or panics.
func TestLoaderGenericsAndAtomics(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "generics"), "fixture/generics")
	if err != nil {
		t.Fatal(err)
	}

	// The generic function and its constraint type-checked.
	sum := pkg.Types.Scope().Lookup("Sum")
	if sum == nil {
		t.Fatal("Sum not found in package scope")
	}
	sig, ok := sum.Type().(*types.Signature)
	if !ok || sig.TypeParams().Len() != 1 {
		t.Fatalf("Sum signature = %v, want one type parameter", sum.Type())
	}

	// The atomic CAS resolved to sync/atomic through the source importer.
	foundCAS := false
	for _, obj := range pkg.Info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Name() == "CompareAndSwapInt32" &&
			fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
			foundCAS = true
		}
	}
	if !foundCAS {
		t.Error("atomic.CompareAndSwapInt32 did not resolve to sync/atomic")
	}

	// Every identifier use has an object: the info maps are complete
	// enough for the analyzers' object-identity matching.
	for _, f := range pkg.Files {
		if f.Name == nil {
			t.Fatal("file without package clause")
		}
	}

	// The suite runs clean over it (and, in particular, does not
	// misclassify the type parameter T as a float in cost counting).
	if findings := Run(l.Fset, pkg, Analyzers()); len(findings) > 0 {
		t.Errorf("suite reported findings on the generics fixture:\n%v", findings)
	}
}

// TestAnalyzerSuite pins the suite roster — costsync and codegen, the
// analyzers no test replaces yet — and that the pragma keys are exactly
// those of the suppressible rules.
func TestAnalyzerSuite(t *testing.T) {
	want := []string{"costsync", "codegen"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
	}
	keys := []string{"bce-ok"}
	if len(knownPragmaKeys) != len(keys) {
		t.Errorf("%d pragma keys registered, want %d", len(knownPragmaKeys), len(keys))
	}
	for _, key := range keys {
		if !knownPragmaKeys[key] {
			t.Errorf("pragma key %s not registered", key)
		}
	}
	for _, a := range got {
		if a.Invariant == "" {
			t.Errorf("analyzer %s has no one-line invariant (the README table and -list source it)", a.Name)
		}
	}
}

// TestLoaderRangeOverIntAndAliasedGenerics pins the offline importer
// against the go1.22 range-over-int statement and aliases of
// instantiated generic types. These are exactly the constructs a
// toolchain bump is most likely to move under the loader's feet; if
// this fails after a bump, every analyzer is silently running on
// half-checked packages.
func TestLoaderRangeOverIntAndAliasedGenerics(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "rangegenerics"), "fixture/rangegenerics")
	if err != nil {
		t.Fatal(err)
	}

	// The alias resolved to the instantiated generic type: IntPair's
	// underlying type is the struct of Pair[int], and methods through
	// the alias carry int signatures.
	obj := pkg.Types.Scope().Lookup("IntPair")
	if obj == nil {
		t.Fatal("IntPair not found in package scope")
	}
	alias, ok := obj.(*types.TypeName)
	if !ok {
		t.Fatalf("IntPair object %T, want *types.TypeName", obj)
	}
	if !alias.IsAlias() {
		t.Fatalf("IntPair is not an alias: %v", alias)
	}
	named, ok := alias.Type().(*types.Named)
	if !ok {
		t.Fatalf("IntPair aliases %v, want an instantiated named type", alias.Type())
	}
	if named.Obj().Name() != "Pair" || named.TypeArgs().Len() != 1 {
		t.Fatalf("IntPair aliases %v, want Pair[int]", named)
	}
	if b, ok := named.TypeArgs().At(0).(*types.Basic); !ok || b.Kind() != types.Int {
		t.Fatalf("IntPair type argument %v, want int", named.TypeArgs().At(0))
	}

	// The range-over-int loops type-checked: Iota's loop variable is a
	// plain int, visible in the info maps.
	iota := pkg.Types.Scope().Lookup("Iota")
	if iota == nil {
		t.Fatal("Iota not found in package scope")
	}
	foundIntLoopVar := false
	for ident, obj := range pkg.Info.Defs {
		if ident.Name == "i" && obj != nil {
			if b, ok := obj.Type().(*types.Basic); ok && b.Kind() == types.Int {
				foundIntLoopVar = true
			}
		}
	}
	if !foundIntLoopVar {
		t.Error("no int-typed range-over-int loop variable in the info maps")
	}

	// The full suite runs clean over the fixture.
	if findings := Run(l.Fset, pkg, Analyzers()); len(findings) > 0 {
		t.Errorf("suite reported findings on the rangegenerics fixture:\n%v", findings)
	}
}
