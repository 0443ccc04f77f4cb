package snapshot_test

import (
	"bytes"
	"testing"

	"sp2bench/internal/gen"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
)

// BenchmarkSnapshotRead times snapshot.Read of a generated 100k-triple
// document held in memory: decoding the sections, rebuilding the
// dictionary, and sealing the store (checking the indexes, building
// their directories and deriving the statistics). It reports ns and
// bytes allocated per read, the load path's share of a benchmark
// set-up.
func BenchmarkSnapshotRead(b *testing.B) {
	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(100_000), &doc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		b.Fatal(err)
	}
	st := store.New()
	if _, err := st.Load(&doc); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := snapshot.Write(&snap, st); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Read(bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
