package btree

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pager"
)

// imageHash is the SHA-256 of the disk's serialized image.
func imageHash(t *testing.T, d *pager.Disk) string {
	t.Helper()
	h := sha256.New()
	if _, err := d.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// formatItem returns a random key and value for a tree with the given
// page size: keys of 1 to 24 letters, values of any length up to the
// item bound, every 29th item exactly at the bound.
func formatItem(r *rand.Rand, pageSize, i int) (key, val []byte) {
	max := maxItem(pageSize)
	key = make([]byte, 1+r.Intn(min(24, max/2)))
	for j := range key {
		key[j] = byte('a' + r.Intn(26))
	}
	n := r.Intn(min(max-len(key), 3*max/4) + 1)
	if i%29 == 0 {
		n = max - len(key)
	}
	val = make([]byte, n)
	for j := range val {
		val[j] = byte('A' + r.Intn(26))
	}
	return key, val
}

// formatChurn applies ops seeded Inserts and Deletes to the tree: one in
// four deletes a key inserted before (missing ones included), the rest
// insert new keys or replace old ones.
func formatChurn(t *testing.T, r *rand.Rand, tr *Tree, pageSize, ops int) {
	t.Helper()
	var keys [][]byte
	for i := 0; i < ops; i++ {
		if len(keys) > 0 && r.Intn(4) == 0 {
			k := keys[r.Intn(len(keys))]
			if err := tr.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			continue
		}
		k, v := formatItem(r, pageSize, i)
		if len(keys) > 0 && r.Intn(5) == 0 {
			k = keys[r.Intn(len(keys))] // a replacement, of a new size
			if len(k)+len(v) > maxItem(pageSize) {
				v = v[:maxItem(pageSize)-len(k)]
			}
		}
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
}

// TestPageImagesUnchanged pins the page format and the split rule: fixed
// seeded Insert/Delete sequences on pages of 128, 256 and 4096 bytes, a
// Loader build, and a churn on a fork of that build must serialize
// (Disk.WriteTo) to exactly the images recorded below. The hashes were
// recorded by running this test on the tree that decoded each node into
// a struct and re-encoded it whole, so the in-place splice that replaced
// it is held to the same bytes, page ids and splits.
func TestPageImagesUnchanged(t *testing.T) {
	want := map[string]string{
		"insert/page128":  "a040d8022c30a5699d9fd8f1e0295253503d3bc869862cb16270ddb7150054e8",
		"insert/page256":  "b8d879b243cc34b341c607952601af0daa2341af7d1c96de2e0f4b8d360c5d7c",
		"insert/page4096": "a26c55ed7c4fa72790cac0c5e200bace890b7655b0fbfdd39146a51b8f980f7e",
		"load/page4096":   "eb0635fa0580de0ea1b38998a714abff9407acae2b20423c7bc58caf23ec22fd",
		"fork/page4096":   "1ec2e9ccb60101985e7a9cc7520a1bd1d9943b02495184f1a9e4974dba66e3d9",
	}
	got := map[string]string{}
	for _, pageSize := range []int{128, 256, 4096} {
		r := rand.New(rand.NewSource(int64(pageSize)))
		tr, d := newTestTree(t, pageSize)
		formatChurn(t, r, tr, pageSize, 3000)
		got[fmt.Sprintf("insert/page%d", pageSize)] = imageHash(t, d)
	}

	r := rand.New(rand.NewSource(47))
	d := pager.NewDisk(4096)
	l := NewLoader(d)
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("k%06d", i))
		_, v := formatItem(r, 4096, i)
		if len(k)+len(v) > maxItem(4096) {
			v = v[:maxItem(4096)-len(k)]
		}
		if err := l.Add(k, v); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got["load/page4096"] = imageHash(t, d)
	fork := d.Fork()
	formatChurn(t, r, Open(fork, tr.Root(), tr.Len()), 4096, 500)
	got["fork/page4096"] = imageHash(t, fork)

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: image %s, want %s", name, got[name], w)
		}
	}
}
