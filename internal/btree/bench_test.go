package btree

import (
	"fmt"
	"testing"

	"repro/internal/pager"
)

func BenchmarkInsert(b *testing.B) {
	d := pager.NewDisk(4096)
	tr, err := New(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key%09d", i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	const n = 10000
	tr := sealedTree(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get([]byte(fmt.Sprintf("key%09d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}

// sealedTree is a tree of n keys on a sealed disk, as a served snapshot
// holds it.
func sealedTree(b *testing.B, n int) *Tree {
	d := pager.NewDisk(4096)
	tr, err := New(d)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key%09d", i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	d.Seal()
	return tr
}

func BenchmarkScan(b *testing.B) {
	tr := sealedTree(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := tr.Scan(nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != 5000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

// BenchmarkIter is the overlay merge's read: a Seek, then a pull walk of
// 5 000 keys.
func BenchmarkIter(b *testing.B) {
	tr := sealedTree(b, 6000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for it := tr.Seek([]byte("key000000500"), nil); it.Valid() && n < 5000; it.Next() {
			n++
		}
		if n != 5000 {
			b.Fatalf("walked %d", n)
		}
	}
}
