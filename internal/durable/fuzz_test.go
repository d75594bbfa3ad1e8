package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/pager"
)

// sealEnvelope frames payload under gen.
func sealEnvelope(gen uint64, payload []byte) []byte {
	return append(frameHeader(gen, uint64(len(payload)), crc32.Checksum(payload, castagnoli)), payload...)
}

// FuzzOpenEnvelope feeds arbitrary bytes through the frame codec: it
// must never panic, and anything it accepts must round-trip — the
// returned payload resealed under the returned generation reproduces
// input bytes exactly (the envelope is a bijection on intact frames).
func FuzzOpenEnvelope(f *testing.F) {
	f.Add(sealEnvelope(1, []byte("a directory image")))
	f.Add(sealEnvelope(0, nil))
	f.Add([]byte("DRBLSEG1 but then garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, payload, err := openEnvelope(data)
		if err != nil {
			return
		}
		if !bytes.Equal(sealEnvelope(gen, payload), data) {
			t.Fatalf("accepted envelope does not re-seal to itself")
		}
	})
}

// FuzzOpenLog writes arbitrary bytes as a log file and runs Open,
// Recover and Load over it. Nothing may panic; what they allocate stays
// bounded by the file's size, whatever lengths the headers claim; and
// every payload served is a whole frame of the file whose checksums
// hold — bytes that fail their CRC are never returned.
func FuzzOpenLog(f *testing.F) {
	image := sealEnvelope(1, []byte("a directory image"))
	chain := append(append([]byte{}, image...), sealEnvelope(2, []byte("a page delta"))...)
	huge := sealEnvelope(1, nil) // a header claiming an exabyte payload
	binary.LittleEndian.PutUint64(huge[16:24], 1<<60)
	binary.LittleEndian.PutUint32(huge[28:32], crc32.Checksum(huge[0:28], castagnoli))
	f.Add(image)
	f.Add(chain)
	f.Add(chain[:len(chain)-3]) // a torn newest delta
	f.Add(append(append([]byte{}, chain...), "DRBLSEG1 then garbage"...))
	f.Add(huge)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, logName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := pager.DirFS(root)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(fs, Options{})
		if err != nil {
			t.Fatalf("Open over a fuzzed log: %v", err)
		}
		served := map[int64][]byte{}
		if gen, payload, err := s.Recover(); err == nil {
			served[gen] = payload
		}
		for _, gen := range s.Generations() {
			if payload, err := s.Load(gen); err == nil {
				served[gen] = payload
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("allocated %d bytes over a %d-byte log", grew, len(data))
		}
		for gen, payload := range served {
			if !bytes.Contains(data, sealEnvelope(uint64(gen), payload)) {
				t.Fatalf("served gen %d as %q, which is no intact frame of the log", gen, payload)
			}
		}
	})
}
