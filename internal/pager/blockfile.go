package pager

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// BlockFile is the surface of one on-disk file as durable storage sees
// it: positioned reads and writes, an explicit durability barrier
// (Sync), truncation, and close. *os.File satisfies it directly; the
// fault-injecting wrapper in internal/faultfs interposes on every
// method. Offsets are byte offsets — callers impose their own framing
// on top (internal/durable appends checksummed frames to log files).
type BlockFile interface {
	io.ReaderAt
	io.WriterAt
	// Sync flushes the file's dirty state to stable storage. Data
	// written but not Synced may vanish in a crash — the commit
	// protocols above this interface acknowledge nothing before the
	// Sync (and, for a new file's name, the SyncRoot) that covers it.
	Sync() error
	// Truncate sets the file's size.
	Truncate(size int64) error
	// Close releases the file. Close does not imply Sync.
	Close() error
}

// FileSystem abstracts the directory-of-files operations a durable
// store's commit protocol needs: file creation and opening, atomic
// rename, removal, listing, sizing, and fsync of the containing
// directory (the step that makes a new name, a rename or a removal
// itself durable).
// All names are flat — no subdirectories — which keeps the fault
// surface enumerable.
type FileSystem interface {
	// Create makes (or truncates) the named file for writing.
	Create(name string) (BlockFile, error)
	// Open opens the named existing file for reading and writing.
	Open(name string) (BlockFile, error)
	// Rename atomically replaces newname with oldname's file. On a
	// POSIX filesystem the replacement is all-or-nothing even across a
	// crash, once the directory is synced.
	Rename(oldname, newname string) error
	// Remove deletes the named file.
	Remove(name string) error
	// List returns the names of all files in the root, sorted.
	List() ([]string, error)
	// Size returns the named file's length in bytes.
	Size(name string) (int64, error)
	// SyncRoot fsyncs the root directory, making created files' names,
	// completed renames and removals durable.
	SyncRoot() error
}

// dirFS is the production FileSystem: a flat directory of real files
// accessed through the os package.
type dirFS struct {
	root string
}

// DirFS returns the os-backed FileSystem rooted at dir, creating the
// directory if needed.
func DirFS(dir string) (FileSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pager: create data dir: %w", err)
	}
	return &dirFS{root: dir}, nil
}

// path validates name as a flat file name — no separators, no "..", so
// no name can direct the store outside its root — and joins it under
// the root.
func (fs *dirFS) path(name string) (string, error) {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return "", fmt.Errorf("pager: invalid file name %q", name)
	}
	return filepath.Join(fs.root, name), nil
}

func (fs *dirFS) Create(name string) (BlockFile, error) {
	p, err := fs.path(name)
	if err != nil {
		return nil, err
	}
	return os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (fs *dirFS) Open(name string) (BlockFile, error) {
	p, err := fs.path(name)
	if err != nil {
		return nil, err
	}
	return os.OpenFile(p, os.O_RDWR, 0)
}

func (fs *dirFS) Rename(oldname, newname string) error {
	po, err := fs.path(oldname)
	if err != nil {
		return err
	}
	pn, err := fs.path(newname)
	if err != nil {
		return err
	}
	return os.Rename(po, pn)
}

func (fs *dirFS) Remove(name string) error {
	p, err := fs.path(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

func (fs *dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.root)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func (fs *dirFS) Size(name string) (int64, error) {
	p, err := fs.path(name)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (fs *dirFS) SyncRoot() error {
	d, err := os.Open(fs.root)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
