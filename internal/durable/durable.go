// Package durable is the crash-safe on-disk snapshot store beneath
// core.Directory: a flat directory of log files, each a run of
// CRC32C-checksummed frames, read back through a recovery ladder that
// falls generation by generation to the newest intact one.
//
// A log file, log-<first generation>.log, opens with a full image
// (Commit: write, fsync, fsync the directory, then remove the log files
// beyond the newest Keep); every later frame in it is a page delta
// against the frame before it (CommitDelta: one write at the file's
// acknowledged end and one fsync). Committed bytes are never rewritten,
// and a failed append is cut off again, so a crash — or any injected
// storage fault (internal/faultfs) — at any instruction boundary leaves
// every acknowledged generation intact and at worst a torn tail that
// verification refuses. Nothing beside the frames records what the
// store holds: Open reads their headers, and because a delta's base is
// always in its own file, pruning whole files never strands one.
//
// DESIGN.md §11 walks through the format, the commit protocol and the
// recovery ladder; internal/durable/crashtest kill -9s a live server
// through this package ≥30 times and asserts every restart serves the
// last durably acknowledged generation byte-identically.
package durable

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pager"
)

// Store-level errors.
var (
	// ErrEmpty is returned by Recover when the store holds no generation
	// at all — a fresh data directory, not a corrupt one.
	ErrEmpty = errors.New("durable: no generations in store")
	// ErrNoIntactGeneration is returned by Recover when generations exist
	// but every one failed verification — the ladder ran out of rungs.
	ErrNoIntactGeneration = errors.New("durable: no intact generation")
	// ErrLegacyStore is returned by Open for a data directory in the
	// earlier segment-and-MANIFEST layout, which this store does not read.
	ErrLegacyStore = errors.New("durable: data directory holds seg-*.seg/MANIFEST files from the earlier layout")
)

// Options configures a Store.
type Options struct {
	// Keep is how many newest log files to retain for rollback (default
	// 3, minimum 1). A file holds a full image and the deltas committed on
	// it, so every retained generation replays; when every checkpoint is
	// a full image, a file is one generation. It does not bound how long
	// a chain of deltas may grow: the committer decides that (Chain).
	Keep int
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Commits      int64 // successful Commit and CommitDelta calls
	CommitBytes  int64 // payload bytes across successful commits
	BytesFsynced int64 // frame bytes written and fsynced
	CorruptSkips int64 // corrupt frames skipped by verification
	Recoveries   int64 // Recover calls that landed on an intact generation
	Pruned       int64 // log files removed
}

// frame is one generation's place in a log file: the offset of its
// header and its length, header included.
type frame struct {
	gen, off, size int64
}

// logFile is one log file as Open indexed it and commits extended it.
// Its frames ascend, frames[0] is the full image the others replay
// onto, and every one is older than the next file's first generation.
// Bytes past the last frame were never acknowledged; an append
// truncates them. A file with no frames is a failed full image's
// leftover: no delta may be appended to an older file while it exists.
type logFile struct {
	name   string
	first  int64 // the generation in the file name
	frames []frame
}

// cut drops l's frames from generation gen on.
func (l *logFile) cut(gen int64) {
	l.frames = l.frames[:sort.Search(len(l.frames), func(j int) bool { return l.frames[j].gen >= gen })]
}

func (l *logFile) end() int64 {
	if len(l.frames) == 0 {
		return 0
	}
	f := l.frames[len(l.frames)-1]
	return f.off + f.size
}

// Store is a crash-safe snapshot store over one pager.FileSystem. All
// methods are safe for concurrent use; commits serialize internally.
type Store struct {
	fs   pager.FileSystem
	keep int

	commitMu sync.Mutex // serializes commits and guards buf
	buf      []byte     // a small frame's buffer, kept for the next commit

	mu    sync.Mutex // guards files
	files []*logFile // ascending by first generation

	commits, commitBytes, bytesFsynced atomic.Int64
	corruptSkips, recoveries, pruned   atomic.Int64
	latency                            *obs.Histogram // nil unless RegisterMetrics ran
}

const (
	logPrefix = "log-"
	logSuffix = ".log"
)

func logName(gen int64) string { return fmt.Sprintf("%s%016d%s", logPrefix, gen, logSuffix) }

// Open attaches a Store to fs and indexes its log files by their frame
// headers, reading no payload. A header that fails its check ends its
// file's scan: as a file's first frame it leaves one rung, at the
// generation the file name gives, that Load refuses; past it, the lost
// tail counts as one corrupt skip. A frame whose payload runs past the
// end of the file, or fails its checksum, stays a rung that Load
// refuses. A directory in the earlier segment-and-MANIFEST layout is
// refused with ErrLegacyStore.
func Open(fs pager.FileSystem, opts Options) (*Store, error) {
	if opts.Keep <= 0 {
		opts.Keep = 3
	}
	s := &Store{fs: fs, keep: opts.Keep}
	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("durable: list store: %w", err)
	}
	for _, name := range names {
		if name == "MANIFEST" || strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") {
			return nil, fmt.Errorf("%w (found %s)", ErrLegacyStore, name)
		}
		var first int64
		if _, err := fmt.Sscanf(name, logPrefix+"%d"+logSuffix, &first); err != nil || first <= 0 || name != logName(first) {
			continue
		}
		l, err := s.scan(name, first)
		if err != nil {
			return nil, err
		}
		s.files = append(s.files, l)
	}
	// A later file starts where an earlier one's acknowledged frames
	// ended; whatever an earlier file holds from there on was never
	// acknowledged (a failed append, or a generation committed again as
	// a full image).
	for i := 0; i+1 < len(s.files); i++ {
		s.files[i].cut(s.files[i+1].first)
	}
	if len(s.files) > 0 {
		// The process that wrote the newest file may have died before the
		// directory fsync that makes its name durable; appends to it must
		// not be acknowledged while the name can still vanish.
		if err := fs.SyncRoot(); err != nil {
			return nil, fmt.Errorf("durable: fsync store directory: %w", err)
		}
	}
	return s, nil
}

// scan indexes one log file's frames by their headers.
func (s *Store) scan(name string, first int64) (*logFile, error) {
	size, err := s.fs.Size(name)
	if err != nil {
		return nil, fmt.Errorf("durable: size %s: %w", name, err)
	}
	f, err := s.fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", name, err)
	}
	defer f.Close()
	l := &logFile{name: name, first: first}
	// The first frame is generation first, and each later one is newer.
	// An empty file still has a first frame to fail.
	prev := first - 1
	for off := int64(0); off == 0 || off < size; {
		gen, n, err := readHeader(f, off)
		if err == nil && (gen <= prev || off == 0 && gen != first) {
			err = ErrCorrupt
		}
		if err != nil {
			if off == 0 {
				l.frames = []frame{{gen: first, size: size}} // the whole file, one rung Load refuses
			} else {
				s.corruptSkips.Add(1) // the tail is lost; the next append cuts it off
			}
			break
		}
		// A payload running past the end of the file keeps the bytes it
		// has, so Load allocates no more than the file holds and refuses it.
		fr := frame{gen: gen, off: off, size: size - off}
		if n <= uint64(size-off-headerSize) {
			fr.size = headerSize + int64(n)
		}
		l.frames = append(l.frames, fr)
		prev, off = gen, off+fr.size
	}
	return l, nil
}

// Commit durably stores one generation as a full image: it starts a new
// log file, log-<gen>.log, which is written, fsynced and made durable
// in its directory (fsync-dir) before the commit is acknowledged; then
// every log file beyond the newest Keep is removed. An error leaves
// every acknowledged generation as it was, and no delta is appended to
// an older file while the failed file may remain.
//
// write runs with the store's commit lock held, so it must not call the
// Store; it streams the image into the file.
//
// Committing a generation the store already holds replaces it, and the
// deltas that replayed onto it go with it: its frames in older files are
// abandoned, and a file that already starts at gen is rewritten in
// place, so a crash in that commit loses the generation and recovery
// falls back one rung.
func (s *Store) Commit(gen int64, write func(w io.Writer) error) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	start := time.Now()
	name := logName(gen)
	size, err := s.create(name, gen, write)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		var left *logFile // a file that outlives its failed commit holds no frame
		if !s.remove(name) {
			left = &logFile{name: name, first: gen}
		}
		s.place(gen, left)
		return fmt.Errorf("durable: commit gen %d: %w", gen, err)
	}
	for _, l := range s.files {
		if l.first < gen {
			l.cut(gen) // the deltas on a replaced generation go with it
		}
	}
	s.place(gen, &logFile{name: name, first: gen, frames: []frame{{gen: gen, size: size}}})
	s.prune()
	s.done(start, size-headerSize, size)
	return nil
}

// CommitDelta durably stores one generation as a page delta against
// base, which must be the newest generation: the frame is appended to
// base's log file at its acknowledged end with one write and one fsync,
// and acknowledged after that fsync. A failed append is truncated away
// (or, if even that fails, overwritten by the next), so nothing is ever
// built on it. As with Commit, write must not call the Store.
func (s *Store) CommitDelta(gen, base int64, write func(w io.Writer) error) error {
	if base <= 0 || base >= gen {
		return fmt.Errorf("durable: delta gen %d has invalid base %d", gen, base)
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	sealed, err := s.seal(gen, write)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var l *logFile
	if len(s.files) > 0 {
		l = s.files[len(s.files)-1]
	}
	if l == nil || len(l.frames) == 0 || l.frames[len(l.frames)-1].gen != base {
		return fmt.Errorf("durable: delta gen %d: base %d is not the newest generation of the newest log file", gen, base)
	}
	start := time.Now()
	end := l.end()
	if err := s.append(l, sealed, end); err != nil {
		return fmt.Errorf("durable: commit gen %d: %w", gen, err)
	}
	size := int64(len(sealed))
	l.frames = append(l.frames, frame{gen: gen, off: end, size: size})
	s.done(start, size-headerSize, size)
	return nil
}

// reuseMax bounds the frame buffer a delta commit keeps for the next.
const reuseMax = 1 << 20

// seal serializes a delta's payload behind room for its header and
// seals the frame, valid until the next commit. Callers hold commitMu.
func (s *Store) seal(gen int64, write func(w io.Writer) error) ([]byte, error) {
	buf := bytes.NewBuffer(s.buf[:0])
	buf.Write(make([]byte, headerSize))
	if err := write(buf); err != nil {
		return nil, fmt.Errorf("durable: serialize gen %d: %w", gen, err)
	}
	frame := buf.Bytes()
	if cap(frame) <= reuseMax {
		s.buf = frame[:0]
	}
	copy(frame, frameHeader(uint64(gen), uint64(len(frame)-headerSize), crc32.Checksum(frame[headerSize:], castagnoli)))
	return frame, nil
}

// create streams a full image into a new log file behind room for its
// header, writes the header, and makes the file durable: fsync,
// fsync-dir. An image is not buffered whole, so a commit's memory does
// not grow with the directory. It returns the frame's size.
func (s *Store) create(name string, gen int64, write func(w io.Writer) error) (int64, error) {
	f, err := s.fs.Create(name)
	if err != nil {
		return 0, fmt.Errorf("create %s: %w", name, err)
	}
	defer f.Close()
	payload, crc := io.NewOffsetWriter(f, headerSize), crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(payload, crc), 64<<10)
	if err := write(bw); err != nil {
		return 0, fmt.Errorf("serialize gen %d into %s: %w", gen, name, err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("write %s: %w", name, err)
	}
	n, _ := payload.Seek(0, io.SeekCurrent)
	if _, err := f.WriteAt(frameHeader(uint64(gen), uint64(n), crc.Sum32()), 0); err != nil {
		return 0, fmt.Errorf("write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("fsync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("close %s: %w", name, err)
	}
	if err := s.fs.SyncRoot(); err != nil {
		return 0, fmt.Errorf("fsync dir after creating %s: %w", name, err)
	}
	return headerSize + n, nil
}

// append writes one frame at l's acknowledged end, truncates what a
// failed append or a torn tail left past it, and fsyncs.
func (s *Store) append(l *logFile, sealed []byte, end int64) error {
	f, err := s.fs.Open(l.name)
	if err != nil {
		return fmt.Errorf("open %s: %w", l.name, err)
	}
	defer f.Close()
	_, err = f.WriteAt(sealed, end)
	if err == nil {
		err = f.Truncate(end + int64(len(sealed)))
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		_ = f.Truncate(end) // best-effort: the next append overwrites and truncates whatever stays
		return fmt.Errorf("append to %s: %w", l.name, err)
	}
	return nil
}

// place puts l in the file list in place of the file starting at first;
// a nil l only removes that one.
func (s *Store) place(first int64, l *logFile) {
	s.files = slices.DeleteFunc(s.files, func(f *logFile) bool { return f.first == first })
	if l != nil {
		s.files = append(s.files, l)
		slices.SortFunc(s.files, func(a, b *logFile) int { return cmp.Compare(a.first, b.first) })
	}
}

// prune removes the log files beyond the newest keep that hold frames,
// and every file that holds none. A file it cannot remove stays listed,
// and the next commit tries again.
func (s *Store) prune() {
	held, removed := 0, false // files holding frames, newest first
	for i := len(s.files) - 1; i >= 0; i-- {
		if len(s.files[i].frames) > 0 {
			held++
		}
		if (len(s.files[i].frames) == 0 || held > s.keep) && s.remove(s.files[i].name) {
			s.files = slices.Delete(s.files, i, i+1)
			s.pruned.Add(1)
			removed = true
		}
	}
	if removed {
		_ = s.fs.SyncRoot() // a removal a crash undoes leaves an older file, never a wrong one
	}
}

// remove deletes one log file; a file already gone counts as removed.
func (s *Store) remove(name string) bool {
	err := s.fs.Remove(name)
	return err == nil || errors.Is(err, iofs.ErrNotExist)
}

func (s *Store) done(start time.Time, payload, frame int64) {
	s.commits.Add(1)
	s.commitBytes.Add(payload)
	s.bytesFsynced.Add(frame)
	if s.latency != nil {
		s.latency.ObserveDuration(time.Since(start))
	}
}

// tail returns the frames of the newest log file that holds any.
// Callers hold mu.
func (s *Store) tail() []frame {
	for i := len(s.files) - 1; i >= 0; i-- {
		if fr := s.files[i].frames; len(fr) > 0 {
			return fr
		}
	}
	return nil
}

// find returns the file and frame of a retained generation. Callers
// hold mu.
func (s *Store) find(gen int64) (*logFile, frame, bool) {
	for _, l := range s.files {
		for _, fr := range l.frames {
			if fr.gen == gen {
				return l, fr, true
			}
		}
	}
	return nil, frame{}, false
}

// Generations lists the retained generations, ascending.
func (s *Store) Generations() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	for _, l := range s.files {
		for _, fr := range l.frames {
			out = append(out, fr.gen)
		}
	}
	return out
}

// BaseOf returns the generation the given one is a page delta against —
// the frame before it in its log file, 0 for a file's full image — and
// whether the generation is retained.
func (s *Store) BaseOf(gen int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, fr, ok := s.find(gen)
	if !ok || fr.off == 0 {
		return 0, ok
	}
	k := sort.Search(len(l.frames), func(j int) bool { return l.frames[j].gen >= gen })
	return l.frames[k-1].gen, true
}

// Locate reports where a retained generation lives: its log file, the
// offset of its frame there, and the frame's length, header included.
func (s *Store) Locate(gen int64) (file string, off, size int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, fr, ok := s.find(gen)
	if !ok {
		return "", 0, 0, false
	}
	return l.name, fr.off, fr.size, true
}

// Chain describes the frames recovering the newest generation reads:
// the deltas it replays down to the full image beneath them, which is
// the newest log file.
type Chain struct {
	Deltas     int   // delta frames above the full image
	DeltaBytes int64 // their sizes, summed
	BaseBytes  int64 // the full image's frame size; 0 when the store is empty
}

// Chain reports the newest generation's replay chain. A checkpoint
// policy reads it to decide when the next checkpoint should be a full
// image again: core.Directory takes one once the deltas would weigh as
// much as the image under them.
func (s *Store) Chain() Chain {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := s.tail()
	if len(fr) == 0 {
		return Chain{}
	}
	c := Chain{Deltas: len(fr) - 1, BaseBytes: fr[0].size}
	for _, d := range fr[1:] {
		c.DeltaBytes += d.size
	}
	return c
}

// Newest returns the highest retained generation, or false when the
// store is empty.
func (s *Store) Newest() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := s.tail()
	if len(fr) == 0 {
		return 0, false
	}
	return fr[len(fr)-1].gen, true
}

// Load reads and fully verifies one generation's frame: header
// checksum, magic, generation number, length, payload checksum. Every
// verification failure wraps ErrCorrupt.
func (s *Store) Load(gen int64) ([]byte, error) {
	s.mu.Lock()
	l, fr, ok := s.find(gen)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("durable: generation %d not in store", gen)
	}
	f, err := s.fs.Open(l.name)
	if err != nil {
		return nil, fmt.Errorf("%w: gen %d unreadable: %v", ErrCorrupt, gen, err)
	}
	defer f.Close()
	buf := make([]byte, fr.size)
	if _, err := f.ReadAt(buf, fr.off); err != nil {
		return nil, fmt.Errorf("%w: gen %d unreadable: %v", ErrCorrupt, gen, err)
	}
	hgen, payload, err := openEnvelope(buf)
	if err != nil {
		return nil, fmt.Errorf("gen %d: %w", gen, err)
	}
	if int64(hgen) != gen {
		return nil, fmt.Errorf("%w: %s holds generation %d where gen %d was indexed", ErrCorrupt, l.name, hgen, gen)
	}
	return payload, nil
}

// Recover walks the ladder: generations newest-first, returning the
// payload of the first one that verifies intact and rolling the store
// back to it past every corrupt newer frame (Rollback), so the write
// path resumes cleanly from the recovered lineage. ErrEmpty means a
// fresh store; a non-nil ErrNoIntactGeneration means data existed and
// all of it failed verification.
func (s *Store) Recover() (int64, []byte, error) {
	gens := s.Generations()
	if len(gens) == 0 {
		return 0, nil, ErrEmpty
	}
	for i := len(gens) - 1; i >= 0; i-- {
		payload, err := s.Load(gens[i])
		if err != nil {
			s.corruptSkips.Add(1)
			continue
		}
		if i < len(gens)-1 {
			_ = s.Rollback(gens[i]) // best-effort: a failure leaves the corrupt rungs for the next Recover to skip
		}
		s.recoveries.Add(1)
		return gens[i], payload, nil
	}
	return 0, nil, fmt.Errorf("%w: all %d generations failed verification", ErrNoIntactGeneration, len(gens))
}

// Rollback drops every generation newer than gen: the log files that
// start past it are removed, and the file holding it is truncated just
// after its frame, so subsequent commits continue the lineage at gen.
// Recovery layers that verify more than the checksums (core.Recover
// decodes the whole image) use it to discard rungs the store's own
// ladder would have accepted.
func (s *Store) Rollback(gen int64) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := false
	for n := len(s.files); n > 0 && s.files[n-1].first > gen; n-- {
		if !s.remove(s.files[n-1].name) {
			return fmt.Errorf("durable: rollback to gen %d: cannot remove %s", gen, s.files[n-1].name)
		}
		s.files = s.files[:n-1]
		s.pruned.Add(1)
		removed = true
	}
	if removed {
		if err := s.fs.SyncRoot(); err != nil {
			return fmt.Errorf("durable: rollback to gen %d: %w", gen, err)
		}
	}
	if len(s.files) == 0 {
		return nil
	}
	l := s.files[len(s.files)-1]
	l.cut(gen + 1)
	f, err := s.fs.Open(l.name)
	if err != nil {
		return fmt.Errorf("durable: rollback to gen %d: %w", gen, err)
	}
	defer f.Close()
	err = f.Truncate(l.end())
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		return fmt.Errorf("durable: rollback to gen %d: %w", gen, err)
	}
	return nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Commits:      s.commits.Load(),
		CommitBytes:  s.commitBytes.Load(),
		BytesFsynced: s.bytesFsynced.Load(),
		CorruptSkips: s.corruptSkips.Load(),
		Recoveries:   s.recoveries.Load(),
		Pruned:       s.pruned.Load(),
	}
}

// RegisterMetrics exposes the store's counters on reg under the given
// prefix (e.g. "dirkit_durable"): commit count and latency histogram,
// payload and fsynced byte totals, corrupt-frame skips, recoveries,
// pruned log files, the retained generation count, and the newest
// generation's replay chain (Chain): when its delta bytes near its base
// bytes, the next checkpoint is due to be a full image.
func (s *Store) RegisterMetrics(reg *obs.Registry, prefix string) {
	s.latency = reg.Histogram(prefix+"_commit_latency_us", "per-checkpoint commit wall time (microseconds)")
	reg.GaugeFunc(prefix+"_commits", "successful durable commits", s.commits.Load)
	reg.GaugeFunc(prefix+"_commit_bytes", "payload bytes durably committed", s.commitBytes.Load)
	reg.GaugeFunc(prefix+"_fsynced_bytes", "frame bytes written and fsynced", s.bytesFsynced.Load)
	reg.GaugeFunc(prefix+"_corrupt_skips", "corrupt frames skipped by verification", s.corruptSkips.Load)
	reg.GaugeFunc(prefix+"_recoveries", "recoveries that landed on an intact generation", s.recoveries.Load)
	reg.GaugeFunc(prefix+"_pruned", "log files removed by retention or rollback", s.pruned.Load)
	reg.GaugeFunc(prefix+"_generations", "generations currently retained", func() int64 { return int64(len(s.Generations())) })
	reg.GaugeFunc(prefix+"_chain_deltas", "delta frames the newest generation replays", func() int64 { return int64(s.Chain().Deltas) })
	reg.GaugeFunc(prefix+"_chain_bytes", "bytes of those delta frames", func() int64 { return s.Chain().DeltaBytes })
	reg.GaugeFunc(prefix+"_chain_base_bytes", "bytes of the full image beneath them", func() int64 { return s.Chain().BaseBytes })
}
