// Package injected is the end-to-end fixture: one deliberate violation
// per analyzer, checked by TestSuiteEndToEnd, which runs the full
// production suite (real store path, every analyzer) and asserts each
// one fires. This guards the wiring — an analyzer silently dropped from
// Analyzers() or defanged by a loader regression fails here even if its
// own golden test still passes.
package injected

import (
	"math/rand"
	"time"

	"sp2bench/internal/store"
)

// leak: goroutinecleanup must fire.
func leak() {
	go func() {}()
}

type shared struct {
	st *store.Store
}

// mutate: lockdiscipline must fire (shared store, no annotation).
func (s *shared) mutate(t store.EncTriple) {
	s.st.AddEncoded(t)
}

// corrupt: frozenmutation must fire (write through the aliasing
// accessor of the real store).
func corrupt(st *store.Store) {
	st.Index(store.OrderSPO)[0] = store.EncTriple{}
}

// sp2b:valuecmp injected violation
func valueEqual(a, b store.ID) bool {
	return a == b
}

// seeded: determinism must fire (wall clock, global rand, map order).
func seeded(m map[string]int) int64 {
	n := 0
	for range m {
		n++
	}
	n += rand.Int()
	return time.Now().Unix() + int64(n)
}
