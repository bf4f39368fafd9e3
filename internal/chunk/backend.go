// Backend factory: chunk stores selected by URL, teranode-blob-server
// style, so deployments pick a medium with configuration instead of
// code. Supported schemes:
//
//	mem://                in-memory store (the default)
//	disk:///path          one file per chunk under /path
//	disk:///path?sync=1   fsync every chunk before publishing it
//	null://               discard payloads, keep accounting (bench-only)
package chunk

import (
	"fmt"
	"net/url"

	"repro/internal/iosim"
)

// OpenStore builds a chunk store from its URL. meter may be nil; it is
// ignored by schemes with no metered medium (null).
func OpenStore(rawURL string, meter *iosim.Meter) (Store, error) {
	scheme, rest, query := splitScheme(rawURL)
	switch scheme {
	case "mem":
		return NewMemStore(meter), nil
	case "disk":
		if rest == "" {
			return nil, fmt.Errorf("chunk: disk store URL %q has no path", rawURL)
		}
		ds, err := NewDiskStore(rest, meter)
		if err != nil {
			return nil, err
		}
		ds.SetSync(query.Get("sync") == "1")
		return ds, nil
	case "null":
		return NewNullStore(), nil
	default:
		return nil, fmt.Errorf("chunk: unknown store scheme %q in %q", scheme, rawURL)
	}
}

// ForProvider derives the store URL for one provider of a pool from a
// pool-level URL: path-based schemes get a per-provider subdirectory
// so N providers of one deployment never collide on disk; path-less
// schemes are returned unchanged (each OpenStore call builds a fresh
// independent store anyway). Query options are preserved.
func ForProvider(rawURL string, id uint32) string {
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme != "disk" || u.Host+u.Path == "" {
		return rawURL
	}
	// The subdirectory joins the parsed path, not the text: printed back
	// unescaped, a path holding an escaped '?' or '#' would hand the rest
	// of itself to the query.
	return u.JoinPath(fmt.Sprintf("p%d", id)).String()
}

// ValidStoreURL reports whether OpenStore would accept the URL,
// without touching the filesystem — configuration validation.
func ValidStoreURL(rawURL string) error {
	scheme, rest, _ := splitScheme(rawURL)
	switch scheme {
	case "mem", "null":
		return nil
	case "disk":
		if rest == "" {
			return fmt.Errorf("chunk: disk store URL %q has no path", rawURL)
		}
		return nil
	default:
		return fmt.Errorf("chunk: unknown store scheme %q in %q", scheme, rawURL)
	}
}

// splitScheme parses a store URL into (scheme, path, query).
func splitScheme(rawURL string) (scheme, path string, query url.Values) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", "", nil
	}
	// disk:///var/chunks parses with empty Host and Path=/var/chunks;
	// disk://relative/dir parses with Host=relative — rejoin them so
	// both absolute and relative paths work.
	p := u.Path
	if u.Host != "" {
		p = u.Host + p
	}
	return u.Scheme, p, u.Query()
}
