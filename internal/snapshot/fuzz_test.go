package snapshot

import (
	"bytes"
	"strings"
	"testing"

	"sp2bench/internal/store"
)

// FuzzRead drives the snapshot reader with arbitrary bytes: whatever
// the input — truncated files, corrupted varints, lying length fields,
// bad CRCs, wrong versions — Read must return an error or a valid
// frozen store, never panic and never allocate unboundedly. The seed
// corpus covers a valid snapshot plus targeted mutations of every
// structural field.
func FuzzRead(f *testing.F) {
	doc := `<http://example.org/a> <http://example.org/p> <http://example.org/b> .
<http://example.org/b> <http://example.org/p> "lit"@en .
<http://example.org/b> <http://example.org/q> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
`
	s := store.New()
	if _, err := s.Load(strings.NewReader(doc)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SP2BSNAP"))                 // magic only
	f.Add(valid[:len(valid)/2])               // truncated mid-section
	f.Add(append([]byte(nil), valid[:12]...)) // header only
	f.Add(bytes.Repeat([]byte{0xFF}, 64))     // varint garbage
	huge := append([]byte(nil), valid...)     // lying section length
	huge[13] = 0xFF                           // first section length byte
	f.Add(huge)
	wrongVer := append([]byte(nil), valid...)
	wrongVer[8] = 1 // the previous format, with a statistics section
	f.Add(wrongVer)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xFF
	f.Add(badCRC)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful load must yield a coherent frozen store.
		if !st.Frozen() {
			t.Fatal("Read returned an unfrozen store")
		}
		if n := st.Len(); n != len(st.Index(store.OrderPOS)) || n != len(st.Index(store.OrderOSP)) {
			t.Fatalf("index lengths diverge: %d/%d/%d",
				n, len(st.Index(store.OrderPOS)), len(st.Index(store.OrderOSP)))
		}
		// Every stored ID must resolve (Term panics on bad IDs).
		for _, tr := range st.Triples() {
			for _, id := range tr {
				_ = st.Dict().Term(id)
			}
		}
	})
}
