package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/store"
	"repro/internal/workload"
)

// peopleDirectory builds a directory of n people under the research
// subtree, large enough that a one-entry delta is visibly smaller than
// a full image.
func peopleDirectory(t testing.TB, n int, opts Options) *Directory {
	t.Helper()
	b := NewBuilder(model.DefaultSchema()).
		MustAdd("dc=com", "dcObject").
		MustAdd("dc=att, dc=com", "dcObject").
		MustAdd("dc=research, dc=att, dc=com", "dcObject").
		MustAdd("ou=userProfiles, dc=research, dc=att, dc=com", "organizationalUnit")
	for i := 0; i < n; i++ {
		if err := b.AddEntry(
			fmt.Sprintf("uid=u%04d, ou=userProfiles, dc=research, dc=att, dc=com", i),
			[]string{"inetOrgPerson"},
			[2]string{"surName", fmt.Sprintf("surname%d", i%17)},
			[2]string{"commonName", fmt.Sprintf("person number %d", i)},
		); err != nil {
			t.Fatal(err)
		}
	}
	dir, err := b.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// personOp builds one add op for a fresh person entry.
func personOp(t testing.TB, dir *Directory, uid, surname string) store.EntryOp {
	t.Helper()
	e, err := model.NewEntryFromDN(dir.Schema(),
		model.MustParseDN(fmt.Sprintf("uid=%s, ou=userProfiles, dc=research, dc=att, dc=com", uid)))
	if err != nil {
		t.Fatal(err)
	}
	e.AddClass("inetOrgPerson")
	e.Add("surName", model.String(surname))
	return store.EntryOp{Add: e}
}

func removeOp(t testing.TB, uid string) store.EntryOp {
	t.Helper()
	return store.EntryOp{Remove: model.MustParseDN(
		fmt.Sprintf("uid=%s, ou=userProfiles, dc=research, dc=att, dc=com", uid))}
}

// TestUpdateEntriesMatchesUpdate applies the same batch through the
// entry-level fast path and through a full-rebuild Update, and requires
// identical answers — plus the tentpole property that the fast path
// dirtied O(log N) pages of a shared fork, not a fresh device.
func TestUpdateEntriesMatchesUpdate(t *testing.T) {
	fast := peopleDirectory(t, 1000, Options{})
	slow := peopleDirectory(t, 1000, Options{})
	baseDisk := fast.Disk()

	if err := fast.UpdateEntries(
		personOp(t, fast, "u9000", "newcomer"),
		removeOp(t, "u0005"),
		personOp(t, fast, "u9001", "newcomer"),
	); err != nil {
		t.Fatal(err)
	}
	err := slow.Update(func(in *model.Instance) error {
		for _, op := range []store.EntryOp{
			personOp(t, slow, "u9000", "newcomer"),
			removeOp(t, "u0005"),
			personOp(t, slow, "u9001", "newcomer"),
		} {
			if op.Add != nil {
				if err := in.Add(op.Add); err != nil {
					return err
				}
			} else if !in.Remove(op.Remove) {
				return fmt.Errorf("no entry %s", op.Remove)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Generation() != 2 || fast.Count() != slow.Count() {
		t.Fatalf("gen %d count %d, want gen 2 count %d", fast.Generation(), fast.Count(), slow.Count())
	}
	for _, q := range []string{
		"(dc=com ? sub ? surName=newcomer)",
		"(dc=com ? sub ? uid=u0005)",
		"(dc=com ? sub ? objectClass=inetOrgPerson)",
		"(uid=u9001, ou=userProfiles, dc=research, dc=att, dc=com ? base ? objectClass=*)",
	} {
		a, err := fast.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, err := slow.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(a.DNs()) != fmt.Sprint(b.DNs()) {
			t.Errorf("%s:\n fast %v\n slow %v", q, a.DNs(), b.DNs())
		}
	}
	// The tentpole: the published disk is a fork of the previous one
	// with a logarithmic dirty set, measured by the pager itself.
	disk := fast.Disk()
	if disk == baseDisk {
		t.Fatal("fast path republished the old disk")
	}
	dirty, total := disk.DirtyCount(), disk.NumPages()
	if dirty == 0 || dirty > 64 {
		t.Errorf("batch dirtied %d pages; want O(log N)", dirty)
	}
	if dirty*10 > total {
		t.Errorf("batch dirtied %d of %d pages; not incremental", dirty, total)
	}
}

// TestUpdateEntriesFailureAtomic: any bad op in the batch leaves the
// directory untouched — same generation, same disk, same answers.
func TestUpdateEntriesFailureAtomic(t *testing.T) {
	dir := peopleDirectory(t, 50, Options{})
	disk := dir.Disk()
	err := dir.UpdateEntries(
		personOp(t, dir, "u9000", "newcomer"),
		removeOp(t, "u7777"), // does not exist
	)
	if !errors.Is(err, store.ErrNoEntry) {
		t.Fatalf("err = %v, want ErrNoEntry", err)
	}
	err = dir.UpdateEntries(
		personOp(t, dir, "u9000", "newcomer"),
		personOp(t, dir, "u0007", "again"), // already there
	)
	if !errors.Is(err, model.ErrDuplicateDN) {
		t.Fatalf("err = %v, want ErrDuplicateDN", err)
	}
	if dir.Generation() != 1 || dir.Disk() != disk {
		t.Fatal("failed batch mutated the directory")
	}
	if res, _ := dir.Search("(dc=com ? sub ? surName=newcomer)"); len(res.Entries) != 0 {
		t.Fatal("failed batch published its add")
	}
}

// bigPerson builds an add op for a person carrying one description of
// each given length.
func bigPerson(t testing.TB, dir *Directory, uid string, descLens ...int) store.EntryOp {
	t.Helper()
	op := personOp(t, dir, uid, "big")
	for i, n := range descLens {
		op.Add.Add("description", model.String(strings.Repeat(string(rune('a'+i)), n)))
	}
	return op
}

// TestUpdateEntriesFallsBackToRebuild: an op the overlay cannot carry
// (an oversized record) transparently degrades to the full rebuild —
// same answer, fresh disk, no lineage recorded. A record the overlay
// can carry takes the fast path.
func TestUpdateEntriesFallsBackToRebuild(t *testing.T) {
	dir := peopleDirectory(t, 50, Options{DeltaCheckpoints: true})
	linked := func(gen int64) bool {
		dir.lineageMu.Lock()
		defer dir.lineageMu.Unlock()
		_, ok := dir.lineage[gen]
		return ok
	}

	// One 1100-byte value: inside the B-tree item limit (pageSize/3 - 8 =
	// 1357 bytes for key + record), so the overlay takes it.
	if err := dir.UpdateEntries(bigPerson(t, dir, "fits", 1100)); err != nil {
		t.Fatal(err)
	}
	if res, _ := dir.Search("(dc=com ? sub ? uid=fits)"); len(res.Entries) != 1 {
		t.Fatal("fast path lost the 1100-byte entry")
	}
	if dir.Generation() != 2 || dir.Disk().DirtyCount() == 0 || !linked(2) {
		t.Fatalf("1100-byte record should take the fast path: generation %d, %d dirty pages, lineage %v",
			dir.Generation(), dir.Disk().DirtyCount(), linked(2))
	}

	// Three 600-byte values: each fits the attribute index on its own, so
	// the full build accepts the entry, but the record as a whole is past
	// the item limit and only the fast path refuses it.
	if err := dir.UpdateEntries(bigPerson(t, dir, "big", 600, 600, 600)); err != nil {
		t.Fatal(err)
	}
	if dir.Generation() != 3 {
		t.Fatalf("generation %d, want 3", dir.Generation())
	}
	if res, _ := dir.Search("(dc=com ? sub ? uid=big)"); len(res.Entries) != 1 {
		t.Fatal("fallback lost the oversized entry")
	}
	if res, _ := dir.Search("(dc=com ? sub ? uid=fits)"); len(res.Entries) != 1 {
		t.Fatal("fallback lost an earlier overlay entry")
	}
	if dir.Disk().DirtyCount() != 0 {
		t.Fatal("fallback should publish a fresh full disk, not a fork")
	}
	if linked(3) {
		t.Fatal("full rebuild must not record update lineage")
	}
}

func frameSize(t *testing.T, ds *durable.Store, gen int64) int64 {
	t.Helper()
	_, _, size := frameOf(t, ds, "", gen)
	return size
}

// TestDeltaCheckpointRoundTrip drives the full incremental-checkpoint
// cycle: full image, two deltas (each a small fraction of the full
// image's bytes), a byte-identical recovery through the chain, and the
// return to a full image when the chain's deltas weigh as much as the
// image beneath them.
func TestDeltaCheckpointRoundTrip(t *testing.T) {
	ds, _ := newDurableStore(t)
	dir := peopleDirectory(t, 450, Options{DeltaCheckpoints: true})

	if gen, err := dir.Checkpoint(ds); err != nil || gen != 1 {
		t.Fatalf("checkpoint 1: %d, %v", gen, err)
	}
	if base, ok := ds.BaseOf(1); !ok || base != 0 {
		t.Fatalf("gen 1 base = %d, %v; want full image", base, ok)
	}

	if err := dir.UpdateEntries(personOp(t, dir, "u9000", "delta")); err != nil {
		t.Fatal(err)
	}
	if gen, err := dir.Checkpoint(ds); err != nil || gen != 2 {
		t.Fatalf("checkpoint 2: %d, %v", gen, err)
	}
	if base, ok := ds.BaseOf(2); !ok || base != 1 {
		t.Fatalf("gen 2 base = %d, %v; want delta on 1", base, ok)
	}
	fullBytes, deltaBytes := frameSize(t, ds, 1), frameSize(t, ds, 2)
	if deltaBytes*10 > fullBytes {
		t.Errorf("delta is %d bytes vs full %d; want >=10x shrink", deltaBytes, fullBytes)
	}

	if err := dir.UpdateEntries(personOp(t, dir, "u9001", "delta"), removeOp(t, "u0003")); err != nil {
		t.Fatal(err)
	}
	if gen, err := dir.Checkpoint(ds); err != nil || gen != 3 {
		t.Fatalf("checkpoint 3: %d, %v", gen, err)
	}
	if base, ok := ds.BaseOf(3); !ok || base != 2 {
		t.Fatalf("gen 3 base = %d, %v; want delta on 2", base, ok)
	}

	// Recovery replays full(1) + delta(2) + delta(3) and must equal the
	// live directory byte for byte.
	back, info, err := Recover(ds, Options{DeltaCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 3 || info.Skipped != 0 {
		t.Fatalf("info = %+v, want gen 3", info)
	}
	var live, recovered bytes.Buffer
	if err := dir.SaveSnapshot(&live); err != nil {
		t.Fatal(err)
	}
	if err := back.SaveSnapshot(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
		t.Fatal("recovered snapshot differs from the live one")
	}
	for _, q := range []string{
		"(dc=com ? sub ? surName=delta)",
		"(dc=com ? sub ? uid=u0003)",
	} {
		a, _ := dir.Search(q)
		b, _ := back.Search(q)
		if fmt.Sprint(a.DNs()) != fmt.Sprint(b.DNs()) {
			t.Errorf("%s:\n live %v\n back %v", q, a.DNs(), b.DNs())
		}
	}

	// The chain folds by bytes, not at the retention window (3 here, and
	// the chain is 2 deltas long already): checkpoints stay deltas while
	// the chain's delta frames and the pages of the next weigh less
	// than the full image beneath them, and the first one past that is a
	// full image again.
	for gen := int64(4); ; gen++ {
		if gen > 100 {
			t.Fatal("the chain never folded")
		}
		if err := dir.UpdateEntries(personOp(t, dir, fmt.Sprintf("u9%03d", gen), "delta")); err != nil {
			t.Fatal(err)
		}
		chain := ds.Chain()
		weight := chain.DeltaBytes + int64(dir.Disk().DirtyCount()*dir.Disk().PageSize())
		if got, err := dir.Checkpoint(ds); err != nil || got != gen {
			t.Fatalf("checkpoint %d: %d, %v", gen, got, err)
		}
		base, _ := ds.BaseOf(gen)
		if weight >= chain.BaseBytes {
			if base != 0 {
				t.Fatalf("gen %d base = %d; chain of %d bytes over an image of %d wants a full image", gen, base, weight, chain.BaseBytes)
			}
			if chain.Deltas < 3 {
				t.Fatalf("folded after %d deltas; a 450-person image should carry more than the retention window", chain.Deltas)
			}
			break
		}
		if base != gen-1 {
			t.Fatalf("gen %d base = %d; chain of %d bytes under an image of %d wants a delta", gen, base, weight, chain.BaseBytes)
		}
	}
	if c := ds.Chain(); c.Deltas != 0 || c.BaseBytes != frameSize(t, ds, dir.Generation()) {
		t.Fatalf("chain after the fold = %+v", c)
	}
}

// TestDeltaFoldBoundsWriteAmplification: 150 one-entry writes, each
// checkpointed. An image is taken only once the deltas since the last
// weigh as much, so everything fsynced — deltas and the images the
// folds took — stays within 2.5 times the deltas plus the first image,
// and no chain ever outweighs its image.
func TestDeltaFoldBoundsWriteAmplification(t *testing.T) {
	ds, _ := newDurableStore(t)
	dir := peopleDirectory(t, 1000, Options{DeltaCheckpoints: true})
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	floor, folds := frameSize(t, ds, 1), 0
	for i := 0; i < 150; i++ {
		if err := dir.UpdateEntries(personOp(t, dir, fmt.Sprintf("w%04d", i), "writer")); err != nil {
			t.Fatal(err)
		}
		gen, err := dir.Checkpoint(ds)
		if err != nil {
			t.Fatal(err)
		}
		if base, _ := ds.BaseOf(gen); base == 0 {
			folds++
		} else {
			floor += frameSize(t, ds, gen)
		}
		if c := ds.Chain(); c.DeltaBytes > c.BaseBytes+c.BaseBytes/8 {
			t.Fatalf("write %d: chain of %d delta bytes over an image of %d", i, c.DeltaBytes, c.BaseBytes)
		}
	}
	if folds == 0 || folds > 30 {
		t.Fatalf("%d full images in 150 writes", folds)
	}
	if fsynced := ds.Stats().BytesFsynced; 2*fsynced > 5*floor {
		t.Fatalf("fsynced %d bytes for %d bytes of deltas and first image (%d folds)", fsynced, floor, folds)
	}
}

// topsWriter returns a 450-subscriber TOPS directory and the op of its
// i-th write, a new call appearance: a 3.4 MB image whose one-entry
// deltas are about 55 KB, so a chain may grow past fifty of them.
func topsWriter(t *testing.T) (*Directory, func(i int) store.EntryOp) {
	t.Helper()
	dir, err := Open(workload.GenTOPS(workload.TOPSConfig{Subscribers: 450, Seed: 1}), Options{DeltaCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	return dir, func(i int) store.EntryOp {
		dn := model.MustParseDN(fmt.Sprintf(
			"CANumber=555%07d, QHPName=qhp0, uid=sub%04d, ou=userProfiles, dc=research, dc=att, dc=com", i, i%450))
		e, err := model.NewEntryFromDN(dir.Schema(), dn)
		if err != nil {
			t.Fatal(err)
		}
		return store.EntryOp{Add: e.AddClass("callAppearance").Add("priority", model.Int(9))}
	}
}

// segReads counts the frame payloads read through it: reads longer than
// a frame header, which is all Open reads of a log.
type segReads struct {
	pager.FileSystem
	n int
}

func (fs *segReads) Open(name string) (pager.BlockFile, error) {
	f, err := fs.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return payloadCounter{f, &fs.n}, nil
}

type payloadCounter struct {
	pager.BlockFile
	n *int
}

func (f payloadCounter) ReadAt(p []byte, off int64) (int, error) {
	if len(p) > 32 {
		*f.n++
	}
	return f.BlockFile.ReadAt(p, off)
}

// TestLongDeltaChain: a full image under fifty deltas, which the byte
// rule allows and the old cap at the retention window did not. It
// recovers to the live directory byte for byte; and the ladder over it
// stays linear when a frame is damaged — every rung above the damage
// replays through it, and only the first of them reads anything to find
// that out.
func TestLongDeltaChain(t *testing.T) {
	const deltas = 50
	ds, root := newDurableStore(t)
	dir, write := topsWriter(t)
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < deltas; i++ {
		if err := dir.UpdateEntries(write(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Checkpoint(ds); err != nil {
			t.Fatal(err)
		}
	}
	if c := ds.Chain(); c.Deltas != deltas || c.DeltaBytes >= c.BaseBytes {
		t.Fatalf("chain = %+v, want %d deltas under their image", c, deltas)
	}
	if gens := ds.Generations(); len(gens) != deltas+1 {
		t.Fatalf("%d generations retained, want the whole chain of %d", len(gens), deltas+1)
	}

	// reopened copies the store's files, flips a payload bit in the given
	// generation's frame (0: none) and opens the copy.
	reopened := func(t *testing.T, damage int64) (*durable.Store, *segReads) {
		t.Helper()
		fs, err := pager.DirFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		names, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		var damaged string
		var off, size int64
		if damage != 0 {
			damaged, off, size = frameOf(t, ds, root, damage)
		}
		for _, de := range names {
			path := filepath.Join(root, de.Name())
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if path == damaged {
				buf[off+size/2] ^= 0x10
			}
			f, err := fs.Create(de.Name())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		counted := &segReads{FileSystem: fs}
		back, err := durable.Open(counted, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return back, counted
	}

	t.Run("recovers-identically", func(t *testing.T) {
		copied, fs := reopened(t, 0)
		back, info, err := Recover(copied, Options{DeltaCheckpoints: true})
		if err != nil || info.Gen != deltas+1 || info.Skipped != 0 {
			t.Fatalf("recover: %+v, %v", info, err)
		}
		if fs.n != deltas+1 {
			t.Fatalf("%d payload reads for a chain of %d", fs.n, deltas+1)
		}
		var live, recovered bytes.Buffer
		if err := dir.SaveSnapshot(&live); err != nil {
			t.Fatal(err)
		}
		if err := back.SaveSnapshot(&recovered); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
			t.Fatal("recovered snapshot differs from the live one")
		}
	})
	t.Run("corrupt-base", func(t *testing.T) {
		copied, fs := reopened(t, 1)
		_, info, err := Recover(copied, Options{DeltaCheckpoints: true})
		if !errors.Is(err, durable.ErrNoIntactGeneration) || info.Skipped != deltas+1 {
			t.Fatalf("recover over a corrupt base: %+v, %v", info, err)
		}
		if fs.n > 2*deltas+1 {
			t.Fatalf("%d payload reads to refuse a chain of %d; the ladder went quadratic", fs.n, deltas+1)
		}
	})
	t.Run("corrupt-delta", func(t *testing.T) {
		const k = 20
		copied, fs := reopened(t, k)
		back, info, err := Recover(copied, Options{DeltaCheckpoints: true})
		if err != nil || info.Gen != k-1 || info.Skipped != deltas+1-(k-1) {
			t.Fatalf("recover over corrupt delta %d: %+v, %v", k, info, err)
		}
		if fs.n > 2*deltas+1 {
			t.Fatalf("%d payload reads over a chain of %d; the ladder went quadratic", fs.n, deltas+1)
		}
		// Exactly the suffix is gone, from the store and from the answers:
		// write i made generation i+2.
		if gens := copied.Generations(); len(gens) != k-1 || gens[len(gens)-1] != k-1 {
			t.Fatalf("generations after recovery = %v, want 1..%d", gens, k-1)
		}
		res, err := back.Search("(dc=com ? sub ? CANumber=555*)")
		if err != nil || len(res.Entries) != k-2 {
			t.Fatalf("recovered generation %d answers %d written entries, %v; want %d", k-1, len(res.Entries), err, k-2)
		}
	})
}

// TestRecoverAfterFullRebuildBreaksChain: a full-rebuild Update between
// checkpoints records no lineage, so the following checkpoint ships a
// full image rather than a bogus delta.
func TestRecoverAfterFullRebuildBreaksChain(t *testing.T) {
	ds, _ := newDurableStore(t)
	dir := peopleDirectory(t, 60, Options{DeltaCheckpoints: true})
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	addUID(t, dir, "rebuilt") // full-rebuild path: no lineage
	if gen, err := dir.Checkpoint(ds); err != nil || gen != 2 {
		t.Fatalf("checkpoint 2: %d, %v", gen, err)
	}
	if base, _ := ds.BaseOf(2); base != 0 {
		t.Fatalf("gen 2 base = %d; a broken lineage must force a full image", base)
	}
	back, info, err := Recover(ds, Options{DeltaCheckpoints: true})
	if err != nil || info.Gen != 2 {
		t.Fatalf("recover: %+v, %v", info, err)
	}
	if res, _ := back.Search("(dc=com ? sub ? uid=rebuilt)"); len(res.Entries) != 1 {
		t.Fatal("recovered image lost the rebuilt entry")
	}
}

// deltaChainStore commits full(1) <- delta(2) <- delta(3) and returns
// the live directory alongside the store.
func deltaChainStore(t *testing.T) (*durable.Store, string, *Directory) {
	t.Helper()
	ds, root := newDurableStore(t)
	dir := peopleDirectory(t, 120, Options{DeltaCheckpoints: true})
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	for i, uid := range []string{"u9000", "u9001"} {
		if err := dir.UpdateEntries(personOp(t, dir, uid, "chain")); err != nil {
			t.Fatal(err)
		}
		if gen, err := dir.Checkpoint(ds); err != nil || gen != int64(2+i) {
			t.Fatalf("checkpoint %d: %d, %v", 2+i, gen, err)
		}
	}
	if b2, _ := ds.BaseOf(2); b2 != 1 {
		t.Fatalf("gen 2 base = %d, want 1", b2)
	}
	if b3, _ := ds.BaseOf(3); b3 != 2 {
		t.Fatalf("gen 3 base = %d, want 2", b3)
	}
	return ds, root, dir
}

// TestDeltaChainBitRotDropsSuffix: silent corruption in the middle
// delta breaks every rung that replays through it — recovery lands on
// the newest generation below the damage and drops exactly the suffix.
func TestDeltaChainBitRotDropsSuffix(t *testing.T) {
	ds, root, _ := deltaChainStore(t)
	damageFrame(t, ds, root, 2, func(f []byte) { f[len(f)-8] ^= 0x04 }) // payload bit-rot in the middle delta

	back, info, err := Recover(ds, Options{DeltaCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	// Gen 3 verifies as a file but replays through corrupt gen 2: both
	// rungs fail, gen 1 (the full image) recovers.
	if info.Gen != 1 || info.Skipped != 2 {
		t.Fatalf("info = %+v, want gen 1 with 2 skips", info)
	}
	if res, _ := back.Search("(dc=com ? sub ? surName=chain)"); len(res.Entries) != 0 {
		t.Fatal("gen 1 must predate the chain entries")
	}
	if gens := ds.Generations(); len(gens) != 1 || gens[0] != 1 {
		t.Fatalf("generations after recovery = %v, want exactly [1]", gens)
	}
}

// TestDeltaTornWriteRecoversIntactPrefix: a torn newest delta (the
// classic exposed partial write) fails only its own rung; the base and
// the intact delta prefix keep recovering.
func TestDeltaTornWriteRecoversIntactPrefix(t *testing.T) {
	ds, root, _ := deltaChainStore(t)
	path, off, size := frameOf(t, ds, root, 3)
	if err := os.Truncate(path, off+size/3); err != nil {
		t.Fatal(err)
	}

	back, info, err := Recover(ds, Options{DeltaCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 2 || info.Skipped != 1 {
		t.Fatalf("info = %+v, want gen 2 with 1 skip", info)
	}
	res, err := back.Search("(uid=u9000, ou=userProfiles, dc=research, dc=att, dc=com ? base ? objectClass=*)")
	if err != nil || len(res.Entries) != 1 {
		t.Fatalf("gen 2 lost its delta's entry: %v, %v", res, err)
	}
	if res, _ := back.Search("(uid=u9001, ou=userProfiles, dc=research, dc=att, dc=com ? base ? objectClass=*)"); len(res.Entries) != 0 {
		t.Fatal("torn gen 3 entry must be gone")
	}
}

// TestDeltaPayloadTypedErrors extends the snapshot corruption table to
// the delta envelope: every structural mutilation of a DIRKITS2 payload
// must surface as ErrCorruptSnapshot.
func TestDeltaPayloadTypedErrors(t *testing.T) {
	dir := peopleDirectory(t, 30, Options{DeltaCheckpoints: true})
	if err := dir.UpdateEntries(personOp(t, dir, "u9000", "delta")); err != nil {
		t.Fatal(err)
	}
	snap := dir.snap.Load()
	dir.lineageMu.Lock()
	rec, ok := dir.lineage[snap.gen]
	dir.lineageMu.Unlock()
	if !ok {
		t.Fatal("fast path recorded no lineage")
	}
	var buf bytes.Buffer
	if err := writeDeltaSnapshot(snap, rec.parent, rec.dirty, &buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	zeroBase := append([]byte(nil), full...)
	for i := 8; i < 16; i++ {
		zeroBase[i] = 0
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-magic", full[:4]},
		{"truncated-base-gen", full[:12]},
		{"zero-base-gen", zeroBase},
		{"truncated-section-header", full[:17]},
		{"truncated-section-body", full[:40]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeDeltaSnapshot(tc.data); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
	// A full-image magic is not a delta.
	var img bytes.Buffer
	if err := dir.SaveSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeDeltaSnapshot(img.Bytes()); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("full image accepted as delta: %v", err)
	}
	// And the pristine delta payload must decode.
	if _, err := decodeDeltaSnapshot(full); err != nil {
		t.Fatalf("pristine delta rejected: %v", err)
	}
}

// modelEntry builds a valid entry of the default schema for dn: class
// by RDN attribute, plus a surName on people so that one DN can carry
// different values.
func modelEntry(t testing.TB, dn model.DN, surname string) *model.Entry {
	t.Helper()
	e, err := model.NewEntryFromDN(model.DefaultSchema(), dn)
	if err != nil {
		t.Fatal(err)
	}
	switch dn.RDN()[0].Attr {
	case "dc":
		e.AddClass("dcObject")
	case "ou":
		e.AddClass("organizationalUnit")
	default:
		e.AddClass("inetOrgPerson")
		e.Add("surName", model.String(surname))
	}
	return e
}

// applyToModel is the reference UpdateEntries: the batch applied in
// order to a copy, all or nothing, failing with the sentinel the
// directory must fail with.
func applyToModel(in *model.Instance, ops []store.EntryOp) (*model.Instance, error) {
	next := in.Clone()
	for _, op := range ops {
		if op.Add != nil {
			if err := next.Add(op.Add); err != nil {
				return in, err
			}
		} else if !next.Remove(op.Remove) {
			return in, store.ErrNoEntry
		}
	}
	return next, nil
}

// TestUpdateEntriesModel drives a seeded random write sequence through
// UpdateEntries and, step by step, through a naive in-memory instance.
// After every step the directory must equal the model in entry count,
// in the touched entry, in the whole-directory answer's LDIF bytes and
// in strictness — the orphan count the store maintains incrementally
// against the model's parentless non-roots, and an Optimize twin given
// the same writes (it collapses ac to p exactly when it believes the
// forest strict) against the ac answer worked out from the model. Every
// 50 steps a snapshot round trip of each must reproduce all of it, which
// checks the orphan count Reopen recounts against the maintained one.
func TestUpdateEntriesModel(t *testing.T) {
	const steps = 320
	rng := rand.New(rand.NewSource(14))
	inst := model.NewInstance(model.DefaultSchema())
	var interior, people []model.DN // every DN ever used, present or not
	add := func(dn string) model.DN {
		d := model.MustParseDN(dn)
		inst.MustAdd(modelEntry(t, d, "seed"))
		return d
	}
	add("dc=com")
	for o := 0; o < 6; o++ {
		org := fmt.Sprintf("dc=o%d, dc=com", o)
		interior = append(interior, add(org))
		for g := 0; g < 4; g++ {
			ou := fmt.Sprintf("ou=g%d, %s", g, org)
			interior = append(interior, add(ou))
			for u := 0; u < 7; u++ {
				people = append(people, add(fmt.Sprintf("uid=u%d, %s", u, ou)))
			}
		}
	}
	if inst.Len() != 199 {
		t.Fatalf("seed forest has %d entries", inst.Len())
	}
	dirs := map[string]*Directory{}
	for name, opts := range map[string]Options{"plain": {}, "optimize": {Optimize: true}} {
		d, err := Open(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		dirs[name] = d
	}

	const all = "( ? sub ? objectClass=*)"
	const withAncestor = "(ac " + all + " " + all + " " + all + ")"
	ldifOf := func(es []*model.Entry) string {
		var b strings.Builder
		for _, e := range es {
			b.WriteString(ldif.MarshalEntry(e))
		}
		return b.String()
	}
	// The model's side of a step, worked out once for every directory
	// checked against it.
	var want struct {
		ldif    string
		orphans int
		strict  bool
		below   string // the ac answer: entries with a present proper ancestor
	}
	viewModel := func() {
		want.ldif, want.orphans, want.strict = ldifOf(inst.Entries()), 0, inst.Validate(true) == nil
		var below []string
		for _, e := range inst.Entries() {
			if _, ok := inst.Get(e.DN().Parent()); !ok && len(e.DN()) > 1 {
				want.orphans++
			}
			for a := e.DN().Parent(); len(a) > 0; a = a.Parent() {
				if _, ok := inst.Get(a); ok {
					below = append(below, e.DN().String())
					break
				}
			}
		}
		want.below = fmt.Sprint(below)
	}
	check := func(label string, d *Directory, touched model.DN) {
		t.Helper()
		if d.Count() != inst.Len() {
			t.Fatalf("%s: count %d, model %d", label, d.Count(), inst.Len())
		}
		got, err := d.Get(touched.String())
		if e, ok := inst.Get(touched); ok {
			if err != nil || !got.Equal(e) {
				t.Fatalf("%s: Get(%s) = %v, %v; model has %v", label, touched, got, err, e)
			}
		} else if !errors.Is(err, store.ErrNoEntry) {
			t.Fatalf("%s: Get(%s) = %v, %v; model has none", label, touched, got, err)
		}
		if got := d.snap.Load().st.Orphans(); got != want.orphans || (got == 0) != want.strict {
			t.Fatalf("%s: %d orphans, model %d (strict: %v)", label, got, want.orphans, want.strict)
		}
		// The plain directory answers for the contents, the Optimize twin
		// for what the planner made of the strictness.
		if !d.opts.Optimize {
			res, err := d.Search(all)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if ldifOf(res.Entries) != want.ldif {
				t.Fatalf("%s: whole-directory answer differs from the model", label)
			}
			return
		}
		res, err := d.Search(withAncestor)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if fmt.Sprint(res.DNs()) != want.below {
			t.Fatalf("%s: ac answer of %d entries differs from the model's", label, len(res.Entries))
		}
	}

	pick := func(dns []model.DN, present bool) (model.DN, bool) {
		for try := 0; try < 64; try++ {
			dn := dns[rng.Intn(len(dns))]
			if _, ok := inst.Get(dn); ok == present {
				return dn, true
			}
		}
		return nil, false
	}
	kinds := map[string]int{}
	for step := 0; step < steps; step++ {
		var ops []store.EntryOp
		var touched model.DN
		kind := [...]string{"leaf add", "leaf add", "leaf remove", "interior remove", "parent re-add",
			"remove+add", "invalid", "duplicate", "missing"}[rng.Intn(9)]
		ok := true
		switch kind {
		case "leaf add": // under any interior DN, present or not
			touched = model.MustParseDN(fmt.Sprintf("uid=n%d, %s", step, interior[rng.Intn(len(interior))]))
			people = append(people, touched)
			ops = []store.EntryOp{{Add: modelEntry(t, touched, "new")}}
		case "leaf remove":
			if touched, ok = pick(people, true); ok {
				ops = []store.EntryOp{{Remove: touched}}
			}
		case "interior remove": // orphans whatever is below
			if touched, ok = pick(interior, true); ok {
				ops = []store.EntryOp{{Remove: touched}}
			}
		case "parent re-add": // adopts the orphans again
			if touched, ok = pick(interior, false); ok {
				ops = []store.EntryOp{{Add: modelEntry(t, touched, "")}}
			}
		case "remove+add": // one DN replaced within one batch
			if touched, ok = pick(people, true); ok {
				ops = []store.EntryOp{{Remove: touched}, {Add: modelEntry(t, touched, fmt.Sprintf("s%d", step))}}
			}
		case "invalid": // a good add, then an entry of an unknown class
			touched = model.MustParseDN(fmt.Sprintf("uid=bad%d, dc=com", step))
			bad := modelEntry(t, touched, "bad")
			bad.AddClass("noSuchClass")
			ops = []store.EntryOp{{Add: modelEntry(t, model.MustParseDN(fmt.Sprintf("uid=good%d, dc=com", step)), "good")}, {Add: bad}}
		case "duplicate":
			if touched, ok = pick(people, true); ok {
				ops = []store.EntryOp{{Add: modelEntry(t, touched, "dup")}}
			}
		case "missing":
			if touched, ok = pick(people, false); ok {
				ops = []store.EntryOp{{Remove: touched}}
			}
		}
		if !ok {
			continue
		}
		kinds[kind]++
		next, refused := applyToModel(inst, ops)
		inst = next
		viewModel()
		for name, d := range dirs {
			label := fmt.Sprintf("step %d (%s), %s", step, kind, name)
			gen := d.Generation()
			err := d.UpdateEntries(ops...)
			if (err == nil) != (refused == nil) || (err != nil && d.Generation() != gen) {
				t.Fatalf("%s: err %v at generation %d (was %d); model: %v", label, err, d.Generation(), gen, refused)
			}
			for _, sentinel := range []error{model.ErrInvalid, model.ErrDuplicateDN, store.ErrNoEntry} {
				if errors.Is(err, sentinel) != errors.Is(refused, sentinel) {
					t.Fatalf("%s: err %v; model: %v", label, err, refused)
				}
			}
			check(label, d, touched)
			if step%50 == 49 {
				var buf bytes.Buffer
				if err := d.SaveSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := OpenSnapshot(&buf, d.opts)
				if err != nil {
					t.Fatalf("%s: reopen: %v", label, err)
				}
				check(label+", reopened", back, touched)
			}
		}
	}
	for _, kind := range []string{"leaf add", "leaf remove", "interior remove", "parent re-add",
		"remove+add", "invalid", "duplicate", "missing"} {
		if kinds[kind] < 10 {
			t.Errorf("only %d %q steps ran", kinds[kind], kind)
		}
	}
}

// TestUpdateEntriesAllocsFlatInN: a one-entry write allocates for the
// tree paths it touches, not for the directory. Quadrupling the
// directory may deepen a tree by a level; it must not multiply the
// allocations (a per-write copy of the entries made it about 4x).
func TestUpdateEntriesAllocsFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted too, and building 17 000 entries under it takes half a minute")
	}
	const runs = 20
	leafAddAllocs := func(subs int) float64 {
		dir, err := Open(workload.GenTOPS(workload.TOPSConfig{Subscribers: subs, Seed: 1}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ops []store.EntryOp
		for i := 0; i <= runs; i++ { // AllocsPerRun makes one warm-up call
			dn := model.MustParseDN(fmt.Sprintf(
				"CANumber=555%07d, QHPName=qhp0, uid=sub%04d, ou=userProfiles, dc=research, dc=att, dc=com", i, i))
			e, err := model.NewEntryFromDN(dir.Schema(), dn)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, store.EntryOp{Add: e.AddClass("callAppearance")})
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if err := dir.UpdateEntries(ops[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	small, large := leafAddAllocs(500), leafAddAllocs(2000)
	if large > 1.5*small {
		t.Errorf("one leaf add allocates %.0f times at 2000 subscribers, %.0f at 500; want within 1.5x", large, small)
	}
}
