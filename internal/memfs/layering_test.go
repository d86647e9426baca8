package memfs

import (
	"go/build"
	"testing"
)

// TestBackendImportsNoDispatchLayer pins the layering: memfs is a
// storage backend under internal/nfsd, so it must not import the
// dispatch layer or the server-side machinery nfsd owns. Tests may
// (they mount the backend behind nfsd); the package itself may not.
func TestBackendImportsNoDispatchLayer(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{
		"nfstricks/internal/nfsd":      true,
		"nfstricks/internal/wgather":   true,
		"nfstricks/internal/nfsheur":   true,
		"nfstricks/internal/readahead": true,
	}
	for _, imp := range pkg.Imports {
		if forbidden[imp] {
			t.Errorf("memfs imports %s, a layer above the backend", imp)
		}
	}
}
