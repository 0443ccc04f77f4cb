package shard_test

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/gen"
	"sp2bench/internal/queries"
	"sp2bench/internal/shard"
	"sp2bench/internal/store"
	"sp2bench/internal/testutil"
)

// TestSeventeenQueryAgreementOverShards is the tentpole's correctness
// gate: all 17 benchmark queries on a 10k generated document, evaluated
// over a 4-shard scatter-gather Reader by the native engine, must
// produce exactly the solutions the single-store oracle produces — not
// just the same counts, the same rows.
func TestSeventeenQueryAgreementOverShards(t *testing.T) {
	if testing.Short() {
		t.Skip("10k document generation in -short mode")
	}
	var buf bytes.Buffer
	g, err := gen.New(gen.DefaultParams(10_000), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if _, err := st.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	set, _, err := shard.Split(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := set.Reader()

	// The oracle is the single-store mem engine, or the sequential
	// native engine for the queries mem cannot answer at this size in
	// test time; the sharded engines run with the default worker budget
	// and with four forced partitions.
	seq, par4 := engine.Native(), engine.Native()
	seq.ParallelWorkers, par4.ParallelWorkers = 1, 4
	mem, seqNative := engine.New(st, engine.Mem()), engine.New(st, seq)
	sharded := map[string]*engine.Engine{
		"shard4-native":           engine.NewReader(rd, engine.Native()),
		"shard4-native-parallel4": engine.NewReader(rd, par4),
	}

	ctx := context.Background()
	for _, q := range queries.All() {
		parsed := q.Parse()
		oracle := mem
		if testutil.MemTooSlow10k[q.ID] {
			oracle = seqNative
		}
		want, err := oracle.Query(ctx, parsed)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q.ID, err)
		}
		wantRows := renderRows(want)
		for name, eng := range sharded {
			got, err := eng.Query(ctx, parsed)
			if err != nil {
				t.Errorf("%s: %s: %v", q.ID, name, err)
				continue
			}
			if got.Form != want.Form || got.Ask != want.Ask {
				t.Errorf("%s: %s: form/ask mismatch", q.ID, name)
				continue
			}
			gotRows := renderRows(got)
			if len(gotRows) != len(wantRows) {
				t.Errorf("%s: %s: %d solutions, oracle has %d", q.ID, name, len(gotRows), len(wantRows))
				continue
			}
			for i := range gotRows {
				if gotRows[i] != wantRows[i] {
					t.Errorf("%s: %s: solution %d differs:\n  got  %s\n  want %s",
						q.ID, name, i, gotRows[i], wantRows[i])
					break
				}
			}
		}
	}
}

// renderRows stringifies a result's solutions, sorted, so multisets
// compare regardless of row order (q11's ORDER BY/LIMIT window is the
// one ordered query, and its window contents are order-stable too).
func renderRows(r *engine.Result) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, term := range row {
			parts[i] = term.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}
