package mvcc_test

import (
	"bytes"
	"testing"

	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// BenchmarkSnapshotScan times RangeIn plus a cursor's CopyColumns over
// every rdf:type triple, the scan the engine's vectorized anchor runs:
// on a frozen 100k-triple store, and on an MVCC snapshot of the same
// base carrying the generator's next 15k triples as a live delta, whose
// range is two runs read in merged order. It reports ns per row and
// allocations per scan.
func BenchmarkSnapshotScan(b *testing.B) {
	const baseTriples, deltaTriples = 100_000, 15_000
	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(baseTriples+deltaTriples), &doc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		b.Fatal(err)
	}
	lines := bytes.SplitAfter(doc.Bytes(), []byte("\n"))
	base := store.New()
	if _, err := base.Load(bytes.NewReader(bytes.Join(lines[:baseTriples], nil))); err != nil {
		b.Fatal(err)
	}
	delta, err := rdf.NewReader(bytes.NewReader(bytes.Join(lines[baseTriples:], nil))).ReadAll()
	if err != nil {
		b.Fatal(err)
	}
	frozen := base
	live := mvcc.New(base, mvcc.MergePolicy{Disabled: true})
	defer live.Close()
	live.Apply(delta)
	sn := live.Snapshot()
	defer sn.Close()

	for _, src := range []struct {
		name string
		r    store.Reader
	}{{"frozen", frozen}, {"snapshot", sn}} {
		typ, ok := src.r.TermDict().Lookup(rdf.IRI(rdf.RDFType))
		if !ok {
			b.Fatal("no rdf:type")
		}
		b.Run(src.name, func(b *testing.B) {
			var s, o [1024]store.ID
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				c := src.r.RangeIn(store.OrderPOS, store.NoID, typ, store.NoID).Cursor()
				for c.Len() > 0 {
					n, _ := c.CopyColumns(len(s), s[:], nil, o[:])
					rows += n
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}
