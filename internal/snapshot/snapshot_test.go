package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"sp2bench/internal/gen"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// testStore builds a small store covering every term shape the format
// serializes: IRIs with shared prefixes, blank nodes, plain, typed and
// language-tagged literals, and multiple predicates. The p/value
// objects tie in value ("1", "01", "1"^^xsd:integer, "1.0"^^xsd:decimal;
// "-0" and "0"), differ only in datatype or language tag, or share
// prefixes: Freeze's numbering and the reader's order check must agree
// on them for the round trip to keep every ID.
func testStore(t *testing.T) *store.Store {
	t.Helper()
	doc := `<http://example.org/alpha/1> <http://example.org/p/type> <http://example.org/alpha/2> .
<http://example.org/alpha/2> <http://example.org/p/type> <http://example.org/alpha/3> .
_:b1 <http://example.org/p/name> "plain" .
_:b1 <http://example.org/p/name> "typed"^^<` + rdf.XSDString + `> .
_:b2 <http://example.org/p/name> "Journal"@en .
_:b2 <http://example.org/p/year> "1940"^^<` + rdf.XSDInteger + `> .
<http://example.org/alpha/1> <http://example.org/p/year> "" .
`
	for _, o := range []string{
		`"1"`, `"01"`, `"1"^^<` + rdf.XSDInteger + `>`, `"01"^^<` + rdf.XSDInteger + `>`,
		`"1.0"^^<` + rdf.XSDDecimal + `>`, `"1"^^<` + rdf.XSDDouble + `>`, `"-0"`, `"0"`,
		`"-0"^^<` + rdf.XSDInteger + `>`, `"1"@en`, `"1"@en-GB`, `"1"^^<` + rdf.XSDString + `>`,
		`"plain"^^<` + rdf.XSDString + `>`, `"plain"@en`, `"x"^^<` + rdf.XSDInteger + `>`, `""^^<` + rdf.XSDString + `>`,
		`<http://example.org/alpha>`, `<http://example.org/alpha/10>`, `<http://example.org/alpha:>`,
		`_:b`, `_:b10`, `_:b2`,
	} {
		doc += "_:b10 <http://example.org/p/value> " + o + " .\n"
	}
	s := store.New()
	if _, err := s.Load(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	return s
}

func snapshotBytes(t *testing.T, s *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	orig := testStore(t)
	data := snapshotBytes(t, orig)

	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Frozen() {
		t.Fatal("reloaded store is not frozen")
	}
	if got.Len() != orig.Len() {
		t.Fatalf("reloaded %d triples, want %d", got.Len(), orig.Len())
	}
	if got.Dict().Len() != orig.Dict().Len() {
		t.Fatalf("reloaded %d terms, want %d", got.Dict().Len(), orig.Dict().Len())
	}
	// Term-by-term equality in ID order: the snapshot preserves IDs.
	for i, want := range orig.Dict().Terms() {
		if gotT := got.Dict().Term(store.ID(i + 1)); gotT != want {
			t.Fatalf("term %d = %v, want %v", i+1, gotT, want)
		}
	}
	for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
		a, b := orig.Index(ord), got.Index(ord)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s index row %d = %v, want %v", ord, i, b[i], a[i])
			}
		}
	}
	// Statistics survive.
	name, ok := got.Dict().Lookup(rdf.IRI("http://example.org/p/name"))
	if !ok {
		t.Fatal("predicate lost")
	}
	gs, og := got.Stats(), orig.Stats()
	if gs.PredCardinality(name) != 3 || gs.DistinctSubjects(name) != 2 || gs.DistinctObjects(name) != 3 {
		t.Fatalf("statistics diverge: card=%d ds=%d do=%d",
			gs.PredCardinality(name), gs.DistinctSubjects(name), gs.DistinctObjects(name))
	}
	if gs.TotalDistinctSubjects() != og.TotalDistinctSubjects() ||
		gs.TotalDistinctObjects() != og.TotalDistinctObjects() {
		t.Fatal("global distinct counts diverge")
	}
	// Queries answer identically.
	if store.Count(got, store.NoID, name, store.NoID) != 3 {
		t.Fatal("index lookup diverges after reload")
	}
}

func TestRoundTripEmptyStore(t *testing.T) {
	s := store.New()
	s.Freeze()
	got, err := Read(bytes.NewReader(snapshotBytes(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Dict().Len() != 0 {
		t.Fatalf("empty store round-tripped to %d triples / %d terms", got.Len(), got.Dict().Len())
	}
}

func TestWriteRequiresFrozenStore(t *testing.T) {
	if err := Write(&bytes.Buffer{}, store.New()); err == nil {
		t.Fatal("Write accepted an unfrozen store")
	}
}

func TestFileRoundTripAndDetection(t *testing.T) {
	s := testStore(t)
	path := t.TempDir() + "/doc" + Ext
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	st, isSnap, n, err := OpenStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !isSnap || n != s.Len() || st.Len() != s.Len() {
		t.Fatalf("OpenStoreFile: snap=%v n=%d len=%d, want true/%d/%d", isSnap, n, st.Len(), s.Len(), s.Len())
	}
}

func TestOpenStoreFallsBackToNTriples(t *testing.T) {
	st, isSnap, n, err := OpenStore(strings.NewReader("<a> <p> <b> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if isSnap || n != 1 || st.Len() != 1 {
		t.Fatalf("OpenStore(nt): snap=%v n=%d len=%d", isSnap, n, st.Len())
	}
	// Tiny non-snapshot inputs (shorter than the magic) must also fall
	// through to the N-Triples parser.
	if _, isSnap, _, err := OpenStore(strings.NewReader("")); err != nil || isSnap {
		t.Fatalf("OpenStore(empty): snap=%v err=%v", isSnap, err)
	}
}

// TestEveryTruncationErrors proves no prefix of a valid snapshot loads:
// truncation at every byte offset must produce an error, not a panic
// and not a silently partial store.
func TestEveryTruncationErrors(t *testing.T) {
	data := snapshotBytes(t, testStore(t))
	for i := 0; i < len(data); i++ {
		if _, err := Read(bytes.NewReader(data[:i])); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded without error", i, len(data))
		}
	}
}

// TestEveryByteCorruptionErrors flips one bit in every byte of a valid
// snapshot: CRC-32C detects all single-bit errors, so every variant
// must fail to load (most earlier, at a structural check).
func TestEveryByteCorruptionErrors(t *testing.T) {
	data := snapshotBytes(t, testStore(t))
	for i := 0; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corrupting byte %d of %d loaded without error", i, len(data))
		}
	}
}

// TestOutOfOrderDictionaryRefused: a snapshot whose dictionary records
// are not in Compare order is corrupt, even under a valid checksum. Two
// adjacent records of a 10k snapshot are swapped and the CRC
// recomputed; the read must fail, naming the record out of order.
func TestOutOfOrderDictionaryRefused(t *testing.T) {
	st, _, err := GenerateStore(gen.DefaultParams(10_000))
	if err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, st)
	same, err := encodeDict(st.Dict().Terms())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(replaceDict(t, data, same))); err != nil {
		t.Fatalf("the snapshot rebuilt around its own dictionary: %v", err)
	}
	terms := slices.Clone(st.Dict().Terms())
	j := len(terms) / 2
	terms[j], terms[j+1] = terms[j+1], terms[j]
	swapped, err := encodeDict(terms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(replaceDict(t, data, swapped)))
	if err == nil {
		t.Fatal("a snapshot with two dictionary records swapped loaded")
	}
	if got != nil {
		t.Error("Read returned a store beside its error")
	}
	if want := fmt.Sprintf("dictionary term %d ", j+2); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the record out of order (%q)", err, want)
	}
}

// replaceDict returns a snapshot with its dictionary section's payload
// replaced and its checksum recomputed.
func replaceDict(t *testing.T, data, payload []byte) []byte {
	t.Helper()
	off := len(magic) + 4
	for i := 0; i < 2; i++ { // the term and triple counts
		_, n := binary.Uvarint(data[off:])
		off += n
	}
	if data[off] != secDict {
		t.Fatalf("section 0x%02x where the dictionary should start", data[off])
	}
	size, n := binary.Uvarint(data[off+1:])
	rest := data[off+1+n+int(size) : len(data)-4] // the index sections and the end marker
	out := append(slices.Clone(data[:off+1]), binary.AppendUvarint(nil, uint64(len(payload)))...)
	out = append(append(out, payload...), rest...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

func TestBadVersion(t *testing.T) {
	data := snapshotBytes(t, testStore(t))
	bad := append([]byte(nil), data...)
	bad[8] = 99 // version field follows the 8 magic bytes
	_, err := Read(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want a version error, got %v", err)
	}
}

func TestTrailingBytesAreIgnored(t *testing.T) {
	// Read consumes exactly one snapshot; surrounding framing (e.g. a
	// stream with something after the snapshot) is the caller's business.
	data := append(snapshotBytes(t, testStore(t)), []byte("extra")...)
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
}
