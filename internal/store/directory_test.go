package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sp2bench/internal/gen"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/rdf"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
	"sp2bench/internal/store/readertest"
)

var orders = []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP}

// directoryStore builds a random store whose ID space has gaps (terms
// interned but never used), whose leading IDs include the first and the
// last interned ID, and whose lead runs are both long (one hub term
// leads many rows in every order) and single-row.
func directoryStore(rng *rand.Rand) *store.Store {
	st := store.New()
	d := st.Dict()
	terms := 40 + rng.Intn(60)
	// Zero-padded, so that Freeze's Compare-order numbering keeps these IDs.
	for i := 0; i < terms; i++ {
		d.Intern(rdf.IRI(fmt.Sprintf("urn:t%03d", i)))
	}
	// Every third ID is a gap: it is in the dictionary but leads nothing.
	var used []store.ID
	for id := store.ID(1); id <= store.ID(terms); id++ {
		if id%3 != 2 {
			used = append(used, id)
		}
	}
	pick := func() store.ID { return used[rng.Intn(len(used))] }
	first, last, hub := store.ID(1), store.ID(terms), pick()
	st.AddEncoded(store.EncTriple{first, last, first})
	st.AddEncoded(store.EncTriple{last, first, last})
	for i := 0; i < 30; i++ {
		st.AddEncoded(store.EncTriple{hub, pick(), pick()})
		st.AddEncoded(store.EncTriple{pick(), hub, pick()})
		st.AddEncoded(store.EncTriple{pick(), pick(), hub})
	}
	for i := rng.Intn(200); i > 0; i-- {
		st.AddEncoded(store.EncTriple{pick(), pick(), pick()})
	}
	// Interned after the triples' IDs: past every index's last lead.
	d.Intern(rdf.IRI("urn:u-late"))
	st.Freeze()
	return st
}

// probeKeys returns the keys to probe, in SPO order: every stored triple,
// and random combinations of every dictionary ID (gaps included) and IDs
// past the dictionary.
func probeKeys(st store.Reader, rng *rand.Rand) [][3]store.ID {
	n := store.ID(st.TermDict().Len())
	ids := []store.ID{n + 1, n + 2, n + 1000}
	for id := store.ID(1); id <= n; id++ {
		ids = append(ids, id)
	}
	var keys [][3]store.ID
	for _, t := range readertest.Triples(st) {
		keys = append(keys, [3]store.ID(t))
	}
	for i := 0; i < 300; i++ {
		keys = append(keys, [3]store.ID{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]})
	}
	return keys
}

// checkRanges compares RangeIn and Count against a linear filter of
// want, the reader's triples in SPO order, for every order and every
// subset of bound components of every key: every prefix length 0-3 and
// the residual shapes.
func checkRanges(t *testing.T, st store.Reader, want []store.EncTriple, keys [][3]store.ID) {
	t.Helper()
	for _, ord := range orders {
		idx := make([]store.EncTriple, len(want))
		for i, tr := range want {
			idx[i] = ord.Permute(tr)
		}
		store.SortEncTriples(idx)
		for _, k := range keys {
			for mask := 0; mask < 8; mask++ {
				var spo store.EncTriple // pattern in SPO order; NoID = unbound
				for c := 0; c < 3; c++ {
					if mask&(1<<c) != 0 {
						spo[c] = k[c]
					}
				}
				key := ord.Permute(spo)
				prefix := 0
				for prefix < 3 && key[prefix] != store.NoID {
					prefix++
				}
				var run, match []store.EncTriple
				for _, row := range idx {
					if slices.Equal(row[:prefix], key[:prefix]) {
						run = append(run, row)
						if (key[0] == store.NoID || row[0] == key[0]) &&
							(key[1] == store.NoID || row[1] == key[1]) &&
							(key[2] == store.NoID || row[2] == key[2]) {
							match = append(match, ord.Unpermute(row))
						}
					}
				}
				rng := st.RangeIn(ord, spo[0], spo[1], spo[2])
				if rows := readertest.Rows(rng); rng.Lead != prefix || rng.Len() != len(run) || !slices.Equal(rows, run) {
					t.Fatalf("%s RangeIn%v: lead %d len %d rows %v, want lead %d rows %v",
						ord, spo, rng.Lead, rng.Len(), rows, prefix, run)
				}
				var got []store.EncTriple
				for it := rng.Iterator(); ; {
					tr, ok := it.Next()
					if !ok {
						break
					}
					got = append(got, tr)
				}
				if !slices.Equal(got, match) {
					t.Fatalf("%s RangeIn%v yields %v, want %v", ord, spo, got, match)
				}
				if store.ChooseOrder(spo[0] != store.NoID, spo[1] != store.NoID, spo[2] != store.NoID) == ord {
					if n := store.Count(st, spo[0], spo[1], spo[2]); n != len(match) {
						t.Fatalf("Count%v = %d, want %d", spo, n, len(match))
					}
				}
			}
		}
	}
}

// TestRangeDirectory checks the leading-ID directories: ranges and
// counts equal a linear filter of the index on stores with gaps in the
// ID space, long and single-row lead runs and probes past the
// directory; a snapshot round trip rebuilds identical directories; and
// an MVCC store answers the same ranges before and after a merge.
func TestRangeDirectory(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := directoryStore(rng)
			keys := probeKeys(st, rng)
			checkRanges(t, st, readertest.Triples(st), keys)
			dirBytes := 0
			for _, ord := range orders {
				idx, dir := st.Index(ord), store.DirOf(st, ord)
				if want := int(idx[len(idx)-1][0]) + 2; len(dir) != want {
					t.Fatalf("%s directory has %d entries, want %d", ord, len(dir), want)
				}
				dirBytes += 4 * len(dir)
			}
			if got, want := st.Footprint().IndexBytes, int64(36*st.Len()+dirBytes); got != want {
				t.Fatalf("Footprint().IndexBytes = %d, want %d (rows plus directories)", got, want)
			}

			var buf bytes.Buffer
			if err := snapshot.Write(&buf, st); err != nil {
				t.Fatal(err)
			}
			back, err := snapshot.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, ord := range orders {
				if !slices.Equal(store.DirOf(st, ord), store.DirOf(back, ord)) {
					t.Fatalf("%s directory differs after snapshot round trip", ord)
				}
			}

			// Terms the MVCC delta interns lie past the base's
			// directories; the snapshot must still find their rows.
			m := mvcc.New(st, mvcc.MergePolicy{MaxDeltaTriples: 1 << 30})
			defer m.Close()
			hub := st.Dict().Term(readertest.Triples(st)[0][0])
			var batch []rdf.Triple
			for i := 0; i < 20; i++ {
				fresh := rdf.IRI(fmt.Sprintf("urn:delta%d", i))
				batch = append(batch,
					rdf.Triple{S: fresh, P: hub, O: hub},
					rdf.Triple{S: hub, P: fresh, O: rdf.IRI(fmt.Sprintf("urn:t%d", i))},
					rdf.Triple{S: hub, P: hub, O: fresh})
			}
			m.Apply(batch)
			for _, merged := range []bool{false, true} {
				if merged {
					m.MergeNow()
				}
				sn := m.Snapshot()
				if merged != (sn.DeltaLen() == 0) {
					t.Fatalf("merged=%v but the snapshot holds %d delta triples", merged, sn.DeltaLen())
				}
				checkRanges(t, sn, readertest.Triples(sn), probeKeys(sn, rng))
				sn.Close()
			}
		})
	}
}

// BenchmarkRangeProbe reports the cost of one index probe per order and
// bound-prefix length on a generated 50k-triple document. The probe
// keys are prefixes of the index's own rows, cycled, as a join's probes
// are.
func BenchmarkRangeProbe(b *testing.B) {
	var doc bytes.Buffer
	g, err := gen.New(gen.DefaultParams(50_000), &doc)
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
	const probes = 4096
	rng := rand.New(rand.NewSource(1))
	for _, ord := range orders {
		idx := st.Index(ord)
		for prefix := 0; prefix <= 3; prefix++ {
			keys := make([]store.EncTriple, probes) // in SPO order
			for i := range keys {
				var key store.EncTriple
				copy(key[:prefix], idx[rng.Intn(len(idx))][:prefix])
				keys[i] = ord.Unpermute(key)
			}
			b.Run(fmt.Sprintf("%s/prefix%d", ord, prefix), func(b *testing.B) {
				rows := 0
				for i := 0; i < b.N; i++ {
					for _, k := range keys {
						rows += st.RangeIn(ord, k[0], k[1], k[2]).Len()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/probe")
				if rows == 0 {
					b.Fatal("no probe matched a row")
				}
			})
		}
	}
}
