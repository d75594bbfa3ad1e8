package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
)

// FuzzOpenEnvelope feeds arbitrary bytes through the envelope codec:
// it must never panic, and anything it accepts must round-trip — the
// returned payload resealed under the returned generation reproduces
// input bytes exactly (the envelope is a bijection on intact files).
func FuzzOpenEnvelope(f *testing.F) {
	f.Add(sealEnvelope(segMagic, 1, []byte("a directory image")))
	f.Add(sealEnvelope(segMagic, 0, nil))
	f.Add([]byte("DRBLSEG1 but then garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, payload, err := openEnvelope(segMagic, data)
		if err != nil {
			return
		}
		if !bytes.Equal(sealEnvelope(segMagic, gen, payload), data) {
			t.Fatalf("accepted envelope does not re-seal to itself")
		}
	})
}

// FuzzManifest drops arbitrary bytes in as MANIFEST (plus one intact
// segment) and runs the full Open → Recover path. It must never panic,
// and whatever Recover serves must be bytes that were actually
// committed — a mangled manifest may at worst make recovery fail (an
// envelope-valid manifest can lie about the segment's checksum), never
// redirect it to corrupt or foreign data.
func FuzzManifest(f *testing.F) {
	valid, _ := json.Marshal(manifestBody{Generations: []segEntry{{Gen: 1, File: segName(1), Size: 40}}})
	f.Add(sealEnvelope(manMagic, 1, valid))
	f.Add(valid)
	f.Add([]byte("{"))
	f.Add([]byte{})
	baseless, _ := json.Marshal(manifestBody{Generations: []segEntry{
		{Gen: 1, File: segName(1), Size: 53, Base: baseUnknown}, {Gen: 2, File: segName(2), Base: 1}}})
	f.Add(sealEnvelope(manMagic, 2, baseless)) // the view a scan rebuild leaves, and a delta above it
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		fs, err := pager.DirFS(root)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		commitString(t, s, 1, "the intact generation")
		if err := os.WriteFile(filepath.Join(root, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := Open(fs, Options{})
		if err != nil {
			t.Fatalf("Open with fuzzed manifest: %v", err)
		}
		gen, payload, err := back.Recover()
		if err != nil {
			return // refusing to serve beats serving wrong bytes
		}
		if gen == 1 && string(payload) != "the intact generation" {
			t.Fatalf("fuzzed manifest changed gen 1's answer: %q", payload)
		}
	})
}
