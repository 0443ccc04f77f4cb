package harness

import (
	"context"
	"sync"
	"testing"

	"sp2bench/internal/engine"
)

// TestConcurrentMatchesSequential pins that concurrency changes only
// latencies, never answers: four clients sharing one engine over the
// same document, each through its own executor and in a rotated query
// order, get the counts of a sequential protocol run.
func TestConcurrentMatchesSequential(t *testing.T) {
	cfg := miniConfig(t)
	cfg.QueryIDs = fastQueries
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqRep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	sc := cfg.Scales[0]
	lr, err := r.load(sc)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(lr.store, engine.Native())
	qs := r.querySet()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ex := newEngineExecutor(eng)
			for i := range qs {
				q := qs[(i+c)%len(qs)]
				n, err := ex.Execute(context.Background(), q)
				if err != nil {
					t.Errorf("client %d %s: %v", c, q.ID, err)
					continue
				}
				s, ok := seqRep.Run(ex.Name(), sc.Name, q.ID)
				if !ok {
					t.Errorf("%s missing from the sequential report", q.ID)
					continue
				}
				if s.Outcome != Success {
					t.Errorf("%s sequential run failed: %s %s", q.ID, s.Outcome, s.Err)
				}
				if n != s.Results {
					t.Errorf("client %d %s: sequential=%d concurrent=%d", c, q.ID, s.Results, n)
				}
			}
		}(c)
	}
	wg.Wait()
}
