package lint

import (
	"fmt"
	"go/token"
	"go/types"
)

// The driver type-checks each directory several times (the merged-test
// unit, the pure import variant, the external _test unit), so the
// "same" object exists as several distinct types.Object pointers. The
// keys below canonicalize an object across those units, so call-graph
// nodes and registry entries built from one incarnation match every
// other.

// ObjectKey canonicalizes an object across type-check units. Functions
// and methods use their qualified name (identical in every unit);
// everything else — fields, package vars, constants — uses the
// declaration position, which both parses of a file share because the
// loader reuses one FileSet.
func ObjectKey(fset *token.FileSet, obj types.Object) string {
	if obj == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return funcKey(fn)
	}
	if pos := fset.Position(obj.Pos()); pos.IsValid() && pos.Filename != "" {
		return fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// funcKey is the canonical node key for a function or method: the
// types.Func full name ("(*ace/internal/wire.Client).Call"), taken on
// the generic origin so instantiations collapse onto one node.
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}
