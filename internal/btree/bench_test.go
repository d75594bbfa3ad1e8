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
	d := pager.NewDisk(4096)
	tr, err := New(d)
	if err != nil {
		b.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key%09d", i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get([]byte(fmt.Sprintf("key%09d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	d := pager.NewDisk(4096)
	tr, err := New(d)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key%09d", i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
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
