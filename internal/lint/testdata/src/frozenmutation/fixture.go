// Package frozenmutation is the golden fixture for the frozenmutation
// analyzer. The analyzer under test is constructed with this package's
// import path, so the Store/Dict/IndexRange types declared here stand
// in for the real ones (whose fields are unexported and therefore
// unreachable from a fixture in another package).
package frozenmutation

type Store struct {
	triples []int
	indexes [3][]int
	counts  map[int]int
	frozen  bool
}

type Dict struct {
	terms []string
}

type IndexRange struct {
	Rows  []int
	Delta []int
}

func (s *Store) Triples() []int { return s.triples }

func (s *Store) Index(o int) []int { return s.indexes[o] }

func (d *Dict) Terms() []string { return d.terms }

// badAdd writes receiver fields outside the builder functions.
func (s *Store) badAdd(v int) {
	s.triples = append(s.triples, v) // want `\(\*Store\).badAdd writes Store field triples outside Freeze/Ingest/seal`
}

// badIndexWrite writes through an indexed field.
func (s *Store) badIndexWrite(o, i, v int) {
	s.indexes[o][i] = v // want `writes Store field indexes outside`
}

// badCount writes a map-valued field.
func (s *Store) badCount(k int) {
	s.counts[k]++ // want `writes Store field counts outside`
}

// badIntern mutates the dictionary outside a sanctioned path.
func (d *Dict) badIntern(t string) {
	d.terms = append(d.terms, t) // want `writes Dict field terms outside`
}

// Freeze is a builder: writes allowed by name.
func (s *Store) Freeze() {
	s.frozen = true
}

// Ingest is a builder too.
func (s *Store) Ingest(vs []int) {
	s.triples = append(s.triples, vs...)
}

// sp2b:mutates-store fixture: a reviewed loading-phase write
func (s *Store) load(v int) {
	s.triples = append(s.triples, v)
}

// newStore owns the value it constructs, so writes are fine.
func newStore(vs []int) *Store {
	s := &Store{counts: map[int]int{}}
	for _, v := range vs {
		s.triples = append(s.triples, v)
		s.counts[v]++
	}
	return s
}

// aliasedStoreWrite mutates through the accessor every reader shares.
func aliasedStoreWrite(s *Store) {
	s.Triples()[0] = 1 // want `write through Store.Triples\(\) mutates the frozen store's shared arrays`
}

// aliasedIndexWrite mutates an index slice through its accessor.
func aliasedIndexWrite(s *Store) {
	s.Index(1)[0] = 2 // want `write through Store.Index\(\)`
}

// aliasedDictWrite mutates the term table through its accessor.
func aliasedDictWrite(d *Dict) {
	d.Terms()[0] = "x" // want `write through Dict.Terms\(\)`
}

// rowsWrite mutates the store arrays through an IndexRange view.
func rowsWrite(r IndexRange) {
	r.Rows[0] = 3 // want `write through IndexRange.Rows`
}

// deltaWrite mutates a snapshot delta through an IndexRange view.
func deltaWrite(r IndexRange) {
	r.Delta[0] = 3 // want `write through IndexRange.Delta`
}

// readOnly never writes; nothing to report.
func readOnly(s *Store) int {
	return len(s.Triples()) + len(s.Index(0))
}
