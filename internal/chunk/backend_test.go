package chunk

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzStoreURL feeds arbitrary text through the two functions that read a
// -store URL without opening it (neither touches the filesystem, and
// OpenStore is never called here). A URL the validator accepts must
// derive, for any provider, a URL it accepts as well — one that keeps the
// scheme, the fault+ prefix and the query options, and for a disk store
// ends in that provider's own subdirectory of the path.
func FuzzStoreURL(f *testing.F) {
	// The usual spellings; the awkward ones are under testdata/fuzz.
	for _, seed := range []string{
		"mem://", "null://", "disk:///var/chunks", "disk://relative/dir", "disk:///tmp/x?sync=1",
		"fault+mem://", "disk://", "s3://bucket", "",
	} {
		f.Add(seed, uint32(3))
	}
	f.Fuzz(func(t *testing.T, raw string, id uint32) {
		if ValidStoreURL(raw) != nil {
			ForProvider(raw, id) // whatever it returns, it must not panic
			return
		}
		scheme, path, query, fault := splitScheme(raw)
		out := ForProvider(raw, id)
		if err := ValidStoreURL(out); err != nil {
			t.Fatalf("ForProvider(%q, %d) = %q, which is refused: %v", raw, id, out, err)
		}
		oscheme, opath, oquery, ofault := splitScheme(out)
		if oscheme != scheme || ofault != fault || !reflect.DeepEqual(oquery, query) {
			t.Fatalf("ForProvider(%q, %d) = %q: scheme %q → %q, fault+ %v → %v, query %v → %v",
				raw, id, out, scheme, oscheme, fault, ofault, query, oquery)
		}
		switch scheme {
		case "disk":
			if again := ForProvider(raw, id+1); again == out {
				t.Fatalf("providers %d and %d of %q share the directory %q", id, id+1, raw, out)
			}
			if !strings.HasSuffix(opath, fmt.Sprintf("/p%d", id)) {
				t.Fatalf("ForProvider(%q, %d) = %q: path %q of %q does not end in the provider's directory", raw, id, out, opath, path)
			}
		default:
			if out != raw {
				t.Fatalf("ForProvider(%q, %d) = %q, want a path-less URL back unchanged", raw, id, out)
			}
		}
	})
}
