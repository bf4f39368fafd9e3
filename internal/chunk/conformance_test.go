package chunk

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The conformance suite runs every backend the factory can build
// through one behavioral contract: Put/Get/ranged-Get/Delete/Usage/Len,
// the streaming pair, and error identity (ErrExists on double store,
// ErrNotFound on absent keys). A backend that passes here is safe to
// drop behind a provider via -store without any other code noticing.

type backendCase struct {
	name string
	url  func(t *testing.T) string
	// fault wraps the opened store in a FaultStore, armed with nothing.
	fault bool
	// fidelity is false for backends that intentionally discard
	// payload bytes (null): size and error behavior are still
	// checked, data round trips are not.
	fidelity bool
}

func backends() []backendCase {
	return []backendCase{
		{name: "mem", url: func(t *testing.T) string { return "mem://" }, fidelity: true},
		{name: "disk", url: func(t *testing.T) string { return "disk://" + t.TempDir() }, fidelity: true},
		{name: "fault+mem", url: func(t *testing.T) string { return "mem://" }, fault: true, fidelity: true},
		{name: "null", url: func(t *testing.T) string { return "null://" }, fidelity: false},
	}
}

// open builds the case's store through the factory.
func (bc backendCase) open(t *testing.T) Store {
	t.Helper()
	s, err := OpenStore(bc.url(t), nil)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if bc.fault {
		return NewFaultStore(s)
	}
	return s
}

func TestStoreConformance(t *testing.T) {
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			runConformance(t, bc.open(t), bc.fidelity)
		})
	}
}

func runConformance(t *testing.T, s Store, fidelity bool) {
	key := Key{Blob: 1, Version: 2, Index: 3}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	// Absent keys: uniform ErrNotFound from every read-side entry.
	if _, err := s.Get(key, 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get absent: got %v, want ErrNotFound", err)
	}
	if _, err := s.Len(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Len absent: got %v, want ErrNotFound", err)
	}
	if _, err := s.OpenReader(key, 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("OpenReader absent: got %v, want ErrNotFound", err)
	}
	if err := s.Delete(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete absent: got %v, want ErrNotFound", err)
	}

	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(key, payload); !errors.Is(err, ErrExists) {
		t.Fatalf("double Put: got %v, want ErrExists", err)
	}
	if err := s.PutFromReader(key, int64(len(payload)), bytes.NewReader(payload)); !errors.Is(err, ErrExists) {
		t.Fatalf("PutFromReader over existing: got %v, want ErrExists", err)
	}

	if n, err := s.Len(key); err != nil || n != int64(len(payload)) {
		t.Fatalf("Len: got (%d, %v), want (%d, nil)", n, err, len(payload))
	}
	if c := chunksHeld(s); c != 1 {
		t.Fatalf("Count: got %d, want 1", c)
	}
	if c, b := s.Usage(); c != 1 || b != int64(len(payload)) {
		t.Fatalf("Usage: got (%d, %d), want (1, %d)", c, b, len(payload))
	}

	full, err := s.Get(key, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("Get full: %v", err)
	}
	if fidelity && !bytes.Equal(full, payload) {
		t.Fatal("Get full: payload mismatch")
	}
	ranged, err := s.Get(key, 100, 200)
	if err != nil {
		t.Fatalf("Get ranged: %v", err)
	}
	if len(ranged) != 200 {
		t.Fatalf("Get ranged: got %d bytes, want 200", len(ranged))
	}
	if fidelity && !bytes.Equal(ranged, payload[100:300]) {
		t.Fatal("Get ranged: payload mismatch")
	}
	if _, err := s.Get(key, 4000, 200); err == nil {
		t.Fatal("Get out of bounds: want error")
	}
	// A range comes off the wire: one whose end overflows int64 must not
	// pass for a small one (FuzzFramedServer found the panic).
	const huge = 1<<63 - 1
	if _, err := s.Get(key, 100, huge); err == nil {
		t.Fatal("Get with an overflowing range: want error")
	}
	if _, err := s.OpenReader(key, huge, huge); err == nil {
		t.Fatal("OpenReader with an overflowing range: want error")
	}

	// Streaming read, full then ranged, must agree with Get.
	rc, err := s.OpenReader(key, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("OpenReader full: %v", err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || len(got) != len(payload) {
		t.Fatalf("stream full: got (%d bytes, %v), want (%d, nil)", len(got), err, len(payload))
	}
	if fidelity && !bytes.Equal(got, payload) {
		t.Fatal("stream full: payload mismatch")
	}
	rc, err = s.OpenReader(key, 1000, 512)
	if err != nil {
		t.Fatalf("OpenReader ranged: %v", err)
	}
	got, err = io.ReadAll(rc)
	rc.Close()
	if err != nil || len(got) != 512 {
		t.Fatalf("stream ranged: got (%d bytes, %v), want (512, nil)", len(got), err)
	}
	if fidelity && !bytes.Equal(got, payload[1000:1512]) {
		t.Fatal("stream ranged: payload mismatch")
	}
	if _, err := s.OpenReader(key, 4000, 200); err == nil {
		t.Fatal("OpenReader out of bounds: want error")
	}

	// Streaming write of a second chunk.
	key2 := Key{Blob: 1, Version: 2, Index: 4}
	if err := s.PutFromReader(key2, int64(len(payload)), bytes.NewReader(payload)); err != nil {
		t.Fatalf("PutFromReader: %v", err)
	}
	if fidelity {
		got, err := s.Get(key2, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Get after PutFromReader: err=%v, equal=%v", err, bytes.Equal(got, payload))
		}
	}
	if c, b := s.Usage(); c != 2 || b != 2*int64(len(payload)) {
		t.Fatalf("Usage after stream put: got (%d, %d), want (2, %d)", c, b, 2*len(payload))
	}

	// A short source must leave the key absent — no torn chunk.
	key3 := Key{Blob: 1, Version: 2, Index: 5}
	short := bytes.NewReader(payload[:100])
	if err := s.PutFromReader(key3, int64(len(payload)), short); err == nil {
		t.Fatal("PutFromReader short source: want error")
	}
	if _, err := s.Len(key3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Len after torn put: got %v, want ErrNotFound", err)
	}
	if c, b := s.Usage(); c != 2 || b != 2*int64(len(payload)) {
		t.Fatalf("Usage after torn put: got (%d, %d), want unchanged (2, %d)", c, b, 2*len(payload))
	}

	// Delete reclaims accounting and restores ErrNotFound identity.
	if err := s.Delete(key); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(key, 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: got %v, want ErrNotFound", err)
	}
	if c, b := s.Usage(); c != 1 || b != int64(len(payload)) {
		t.Fatalf("Usage after delete: got (%d, %d), want (1, %d)", c, b, len(payload))
	}
}

// TestStoreOwnership is Store.Put's contract from the store's side, for
// every backend: the store may keep what a Put hands it (a MemStore does,
// uncopied) but never writes into it; Get hands out a copy its caller may
// scribble on, and what OpenReader serves does not depend on that copy.
func TestStoreOwnership(t *testing.T) {
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			s := bc.open(t)
			key := Key{Blob: 4, Version: 1}
			data := make([]byte, 8192)
			for i := range data {
				data[i] = byte(i * 13)
			}
			want := bytes.Clone(data)
			if err := s.Put(key, data); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatal("Put wrote into the buffer it was handed")
			}
			if ms, ok := s.(*MemStore); ok && &ms.chunks[key][0] != &data[0] {
				t.Fatal("MemStore.Put copied the buffer it may keep")
			}
			got, err := s.Get(key, 0, int64(len(data)))
			if err != nil || len(got) != len(data) {
				t.Fatalf("Get: %d bytes, %v", len(got), err)
			}
			for i := range got {
				got[i] = 0xEE
			}
			again, err := s.Get(key, 100, 1000)
			if err != nil || (bc.fidelity && !bytes.Equal(again, want[100:1100])) {
				t.Fatalf("Get after scribbling on an earlier Get's bytes: %v", err)
			}
			rc, err := s.OpenReader(key, 0, int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || len(streamed) != len(data) || (bc.fidelity && !bytes.Equal(streamed, want)) {
				t.Fatalf("OpenReader after scribbling on a Get's bytes: %d bytes, %v", len(streamed), err)
			}
			if !bytes.Equal(data, want) {
				t.Fatal("reads wrote into the buffer Put was handed")
			}
		})
	}
}

// TestFactoryRejectsBadURLs pins the factory's validation behavior.
func TestFactoryRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"s3://bucket", "disk://", "", "fault+mem://", "fault+s3://x"} {
		if _, err := OpenStore(bad, nil); err == nil {
			t.Errorf("OpenStore(%q): want error", bad)
		}
		if err := ValidStoreURL(bad); err == nil {
			t.Errorf("ValidStoreURL(%q): want error", bad)
		}
	}
	for _, good := range []string{"mem://", "null://", "disk:///tmp/x"} {
		if err := ValidStoreURL(good); err != nil {
			t.Errorf("ValidStoreURL(%q): %v", good, err)
		}
	}
}

// TestForProviderDerivesDiskSubdirs pins the per-provider URL
// derivation: disk stores split into p<id> subdirectories, path-less
// schemes pass through.
func TestForProviderDerivesDiskSubdirs(t *testing.T) {
	if got := ForProvider("disk:///var/chunks", 3); got != "disk:///var/chunks/p3" {
		t.Fatalf("ForProvider disk: got %q", got)
	}
	if got := ForProvider("mem://", 5); got != "mem://" {
		t.Fatalf("ForProvider mem: got %q", got)
	}
	// Two providers of one pool must land in distinct directories.
	dir := t.TempDir()
	base := "disk://" + dir
	s0, err := OpenStore(ForProvider(base, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := OpenStore(ForProvider(base, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Blob: 9, Version: 9, Index: 9}
	if err := s0.Put(key, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Len(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("provider stores share state: %v", err)
	}
}

// TestDiskPutCrashSafe is the satellite-b regression: a mid-write
// failure (simulated by a short source stream) must never leave a
// visible, truncated chunk file, and a crash's leftover temp file must
// be ignored and cleaned by the rescan instead of being indexed.
func TestDiskPutCrashSafe(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Blob: 7, Version: 1, Index: 0}

	// Interrupted stream: key absent, no chunk file, no temp debris.
	if err := s.PutFromReader(key, 1<<20, &iotestErrReader{limit: 4096}); err == nil {
		t.Fatal("want error from interrupted stream")
	}
	if _, err := s.Len(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Len after interrupted put: got %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(filepath.Join(dir, key.String())); !os.IsNotExist(err) {
		t.Fatalf("chunk file exists after interrupted put: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}

	// The key is retryable after the failure.
	if err := s.Put(key, []byte("recovered")); err != nil {
		t.Fatalf("Put after failed put: %v", err)
	}

	// Crash between write and rename: plant a temp file as the crash
	// would leave it, reopen, and check it is neither indexed nor kept.
	planted := filepath.Join(dir, tmpPrefix+"b7-v1-c1-12345")
	if err := os.WriteFile(planted, make([]byte, 512), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := chunksHeld(s2); c != 1 {
		t.Fatalf("rescan indexed temp debris: Count=%d, want 1", c)
	}
	if _, err := os.Stat(planted); !os.IsNotExist(err) {
		t.Fatalf("rescan kept temp debris: %v", err)
	}
	if got, err := s2.Get(key, 0, 9); err != nil || string(got) != "recovered" {
		t.Fatalf("survivor chunk after rescan: (%q, %v)", got, err)
	}
}

// TestFaultStoreStreamFaults pins the mid-stream injection modes: a
// put stream dying after N bytes never publishes a torn chunk, a get
// stream dying after N bytes surfaces ErrInjected, and SetDown while a
// read is in flight kills it with ErrDown.
func TestFaultStoreStreamFaults(t *testing.T) {
	f := NewFaultStore(NewMemStore(nil))
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	key := Key{Blob: 1, Version: 1, Index: 0}

	f.FailPutStreamAfter(1000)
	err := f.PutFromReader(key, int64(len(payload)), bytes.NewReader(payload))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("put stream fault: got %v, want ErrInjected", err)
	}
	if _, err := f.Len(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn chunk visible: %v", err)
	}
	// One-shot: the next stream sails through.
	if err := f.PutFromReader(key, int64(len(payload)), bytes.NewReader(payload)); err != nil {
		t.Fatalf("put after one-shot fault: %v", err)
	}

	f.FailGetStreamAfter(1000)
	rc, err := f.OpenReader(key, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	_, err = io.ReadAll(rc)
	rc.Close()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("get stream fault: got %v, want ErrInjected", err)
	}

	rc, err = f.OpenReader(key, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	buf := make([]byte, 100)
	if _, err := io.ReadFull(rc, buf); err != nil {
		t.Fatalf("read before down: %v", err)
	}
	f.SetDown(true)
	if _, err := rc.Read(buf); !errors.Is(err, ErrDown) {
		t.Fatalf("in-flight read after SetDown: got %v, want ErrDown", err)
	}
	rc.Close()
	f.SetDown(false)
}

// iotestErrReader yields limit bytes then a permanent error — a source
// dying mid-stream.
type iotestErrReader struct{ limit int }

func (r *iotestErrReader) Read(p []byte) (int, error) {
	if r.limit <= 0 {
		return 0, errors.New("source died")
	}
	if len(p) > r.limit {
		p = p[:r.limit]
	}
	for i := range p {
		p[i] = 0xAB
	}
	r.limit -= len(p)
	return len(p), nil
}

// TestDiskSyncOption pins the ?sync=1 URL option: both forms open and
// round-trip, and the query survives per-provider URL derivation.
func TestDiskSyncOption(t *testing.T) {
	dir := t.TempDir()
	for _, raw := range []string{"disk://" + dir + "/plain", "disk://" + dir + "/sync?sync=1"} {
		s, err := OpenStore(raw, nil)
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		key := Key{Blob: 1, Version: 1, Index: 0}
		if err := s.Put(key, []byte("abc")); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		got, err := s.Get(key, 0, 3)
		if err != nil || string(got) != "abc" {
			t.Fatalf("%s: get = %q, %v", raw, got, err)
		}
	}
	if got, want := ForProvider("disk:///d?sync=1", 3), "disk:///d/p3?sync=1"; got != want {
		t.Fatalf("ForProvider = %q, want %q", got, want)
	}
	if err := ValidStoreURL("disk:///d?sync=1"); err != nil {
		t.Fatal(err)
	}
}
