package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/store"
)

// Snapshot format: magic, then three length-prefixed sections — the
// schema (as #schema directives), the store manifest (JSON), and the
// raw disk image. Opening a snapshot skips the Build step entirely:
// the master list, DN index and attribute index come back as written;
// one scan of the live entries (store.Reopen) verifies them and rebuilds
// the in-memory string indexes, catalog and orphan count.
var snapshotMagic = [8]byte{'D', 'I', 'R', 'K', 'I', 'T', 'S', '1'}

// ErrCorruptSnapshot marks a snapshot stream whose structure is broken:
// truncated or wrong magic, a truncated section header, a section body
// shorter than its declared length, or an implausible declared size.
// I/O failures of the underlying reader are wrapped but keep their own
// identity; structural damage is always errors.Is-able as this.
// internal/durable's recovery ladder relies on the distinction to
// count corrupt-frame skips separately from transport problems.
var ErrCorruptSnapshot = errors.New("core: corrupt snapshot")

// SaveSnapshot writes the directory's disk image and metadata. It
// captures the read snapshot current at call time; because store disks
// are immutable once published (a writer builds its replacement on a
// fork or a fresh disk), the image is consistent even while queries and
// a background write run concurrently.
func (d *Directory) SaveSnapshot(w io.Writer) error {
	return writeSnapshot(d.snap.Load(), w)
}

// writeSnapshot serializes one immutable read snapshot. Taking the
// snapshot as a parameter (rather than re-loading d.snap) is what makes
// checkpointing non-blocking: Checkpoint pins one generation and
// serializes it while readers and writers proceed on the atomic
// pointer.
func writeSnapshot(snap *snapshot, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("core: write snapshot magic: %w", err)
	}
	if err := writeSection(bw, []byte(ldif.MarshalSchema(snap.st.Schema()))); err != nil {
		return fmt.Errorf("core: write schema section: %w", err)
	}
	manifest, err := snap.st.Manifest()
	if err != nil {
		return fmt.Errorf("core: marshal store manifest: %w", err)
	}
	if err := writeSection(bw, manifest); err != nil {
		return fmt.Errorf("core: write manifest section: %w", err)
	}
	if _, err := snap.st.Disk().WriteTo(bw); err != nil {
		return fmt.Errorf("core: write disk image: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flush snapshot: %w", err)
	}
	return nil
}

// OpenSnapshot reconstructs a queryable Directory from a snapshot.
// Options must agree with the snapshot's layout where it matters
// (PageSize is taken from the image; NoAttrIndex from the manifest).
// Structural damage — truncation anywhere, wrong magic, lying section
// lengths — is reported as ErrCorruptSnapshot.
//
// The restored Directory starts at generation 1 like any fresh Open
// (nothing cached against other contents can ever match). Recover is
// the restore path that instead preserves the on-disk generation, for
// callers continuing a durable lineage.
func OpenSnapshot(r io.Reader, opts Options) (*Directory, error) {
	return openSnapshotGen(r, opts, 1)
}

// openSnapshotGen is OpenSnapshot with an explicit starting generation.
func openSnapshotGen(r io.Reader, opts Options, gen int64) (*Directory, error) {
	p, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	return assembleSnapshot(p, opts, gen)
}

// snapshotParts is a decoded full-snapshot payload before store
// assembly. Decode and assembly are split so delta recovery can replay
// page deltas onto the base image (and substitute the newest payload's
// schema and manifest) between the two steps.
type snapshotParts struct {
	schema   *model.Schema
	manifest []byte
	disk     *pager.Disk
}

// decodeSnapshot reads a full-snapshot payload: magic, schema section,
// manifest section, disk image.
func decodeSnapshot(r io.Reader) (*snapshotParts, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated magic: %v", ErrCorruptSnapshot, err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, magic[:])
	}
	schemaText, err := readSection(br)
	if err != nil {
		return nil, fmt.Errorf("schema section: %w", err)
	}
	schema, err := ldif.UnmarshalSchema(string(schemaText))
	if err != nil {
		return nil, fmt.Errorf("%w: undecodable schema: %v", ErrCorruptSnapshot, err)
	}
	manifest, err := readSection(br)
	if err != nil {
		return nil, fmt.Errorf("manifest section: %w", err)
	}
	disk, err := pager.ReadDisk(br)
	if err != nil {
		return nil, fmt.Errorf("%w: disk image: %v", ErrCorruptSnapshot, err)
	}
	return &snapshotParts{schema: schema, manifest: manifest, disk: disk}, nil
}

// assembleSnapshot builds the queryable Directory from decoded parts.
// store.Reopen's scan is the integrity check of the recovered entries;
// what it refuses is reported as ErrCorruptSnapshot, with the store's
// own error still matchable beneath it.
func assembleSnapshot(p *snapshotParts, opts Options, gen int64) (*Directory, error) {
	st, err := store.Reopen(p.disk, p.schema, p.manifest)
	if err != nil {
		return nil, fmt.Errorf("%w: reopen store: %w", ErrCorruptSnapshot, err)
	}
	return newDirectory(st, opts, gen), nil
}

// Delta snapshot format (generation deltas, DESIGN.md §15): magic, the
// base generation as 8 bytes little-endian, then the schema and store
// manifest sections exactly as in a full snapshot — but describing THIS
// generation — and finally a pager page delta (pager.WriteDeltaTo)
// carrying only the pages that differ from the base generation's image.
// Recovery chases base links down to a full DIRKITS1 image, replays the
// page deltas oldest-first, and assembles with the newest payload's
// schema and manifest.
var snapshotDeltaMagic = [8]byte{'D', 'I', 'R', 'K', 'I', 'T', 'S', '2'}

// writeDeltaSnapshot serializes snap as a delta against baseGen, where
// dirty is the union of fork dirty sets along the update lineage from
// baseGen to snap (ascending page order — WriteDeltaTo's contract).
func writeDeltaSnapshot(snap *snapshot, baseGen int64, dirty []pager.PageID, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotDeltaMagic[:]); err != nil {
		return fmt.Errorf("core: write delta magic: %w", err)
	}
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], uint64(baseGen))
	if _, err := bw.Write(g[:]); err != nil {
		return fmt.Errorf("core: write delta base generation: %w", err)
	}
	if err := writeSection(bw, []byte(ldif.MarshalSchema(snap.st.Schema()))); err != nil {
		return fmt.Errorf("core: write schema section: %w", err)
	}
	manifest, err := snap.st.Manifest()
	if err != nil {
		return fmt.Errorf("core: marshal store manifest: %w", err)
	}
	if err := writeSection(bw, manifest); err != nil {
		return fmt.Errorf("core: write manifest section: %w", err)
	}
	if _, err := snap.st.Disk().WriteDeltaTo(bw, dirty); err != nil {
		return fmt.Errorf("core: write page delta: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flush delta snapshot: %w", err)
	}
	return nil
}

// deltaParts is a decoded delta payload: the metadata sections plus the
// raw pager delta stream, held unparsed for replay onto the base image.
type deltaParts struct {
	gen      int64 // the generation this payload encodes (set by the caller)
	baseGen  int64
	schema   *model.Schema
	manifest []byte
	pages    *bytes.Reader // positioned at the pager delta stream
}

// decodeDeltaSnapshot parses a DIRKITS2 payload's header and sections,
// leaving the reader at the pager delta stream.
func decodeDeltaSnapshot(payload []byte) (*deltaParts, error) {
	r := bytes.NewReader(payload)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated delta magic: %v", ErrCorruptSnapshot, err)
	}
	if magic != snapshotDeltaMagic {
		return nil, fmt.Errorf("%w: bad delta magic %q", ErrCorruptSnapshot, magic[:])
	}
	var g [8]byte
	if _, err := io.ReadFull(r, g[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated delta base generation: %v", ErrCorruptSnapshot, err)
	}
	baseGen := int64(binary.LittleEndian.Uint64(g[:]))
	if baseGen <= 0 {
		return nil, fmt.Errorf("%w: delta base generation %d", ErrCorruptSnapshot, baseGen)
	}
	schemaText, err := readSection(r)
	if err != nil {
		return nil, fmt.Errorf("schema section: %w", err)
	}
	schema, err := ldif.UnmarshalSchema(string(schemaText))
	if err != nil {
		return nil, fmt.Errorf("%w: undecodable schema: %v", ErrCorruptSnapshot, err)
	}
	manifest, err := readSection(r)
	if err != nil {
		return nil, fmt.Errorf("manifest section: %w", err)
	}
	return &deltaParts{baseGen: baseGen, schema: schema, manifest: manifest, pages: r}, nil
}

func writeSection(w io.Writer, b []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readSection reads one length-prefixed section. The declared length is
// never trusted with an up-front allocation: the body is copied
// incrementally, so a lying header on a truncated stream costs only
// the bytes actually present (FuzzOpenSnapshot leans on this — a
// 4-byte header must not be able to demand a gigabyte).
func readSection(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated section header: %v", ErrCorruptSnapshot, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > 1<<30 {
		return nil, fmt.Errorf("%w: section declares %d bytes", ErrCorruptSnapshot, n)
	}
	var buf bytes.Buffer
	copied, err := io.CopyN(&buf, r, int64(n))
	if err != nil {
		return nil, fmt.Errorf("%w: section truncated at %d of %d bytes: %v", ErrCorruptSnapshot, copied, n, err)
	}
	return buf.Bytes(), nil
}
