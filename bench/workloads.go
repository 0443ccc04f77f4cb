package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// The 17 query texts are frozen copies of internal/queries (standard
// prologue + appendix text) so that an edit there cannot silently
// change what a workload sends; expected.json pins their seed-1 row
// counts at the two scales the workloads use.
//
//go:embed queries/*.rq
var queryFS embed.FS

//go:embed expected.json
var expectedJSON []byte

// insertTemplate names the update operation of mixed-update-250k.
const insertTemplate = "insert"

// batchTriples is the size of one insert batch.
const batchTriples = 1000

// template is one operation of a workload's cycle: a query in a result
// format, or the insert batch.
type template struct {
	name   string // "q4.xml"; unique within the workload
	query  string // "q4"; empty for the insert
	format string
	text   string // frozen query text
}

func (t template) isInsert() bool { return t.query == "" }

// workload is one traffic mix. Every workload is a closed loop: each
// client sends its next request when the previous response has been
// read to the end.
type workload struct {
	name    string
	scale   int64 // generator triple limit of the served document
	clients int
	updates bool // sp2bserve -updates, and an insert per cycle
	// tailTriples is how much of the generator's continuation is kept
	// for insert batches. The stream must not run out inside a run:
	// at the measured ~8 batches/s the tail lasts four times the
	// longest allowed run, and a run that exhausts it fails.
	tailTriples int64
	cycle       []string // "q4.xml", "q1" (JSON), or "insert"
	why         string
}

var workloads = []workload{
	{
		name: "lookup-250k", scale: 250_000, clients: 2,
		cycle: []string{"q1", "q10", "q12b", "q12c"},
		why: "Point lookups: <100 µs of execute but 200-700 µs over HTTP, so parse, " +
			"compile and transport do most of the work. Real endpoint traffic is mostly this.",
	},
	{
		name: "join-250k", scale: 250_000, clients: 1,
		cycle: []string{"q3b", "q3c", "q5a", "q5b", "q6", "q7", "q8", "q9", "q11", "q12a"},
		why: "Join-heavy queries with small results: >90% of latency is engine execute " +
			"over store scans; the result path is <5%.",
	},
	{
		name: "bigresult-50k", scale: 50_000, clients: 1,
		cycle: []string{"q4.json", "q4.xml", "q4.tsv", "q4.csv", "q3a", "q2", "q10"},
		why: "Q4 returns ~101k rows (21 MB as JSON): materialize + serialize + write " +
			"dominate, and the server holds the whole term-inflated result.",
	},
	{
		name: "mixed-update-250k", scale: 250_000, clients: 2, updates: true,
		tailTriples: 1_000_000,
		cycle:       []string{"q1", "q10", "q12c", "q3b", "q5b", "q8", "q11", "q12a", insertTemplate},
		why: "Reads through per-request MVCC snapshots over a non-empty delta while " +
			"1000-triple commits and background merges run: merge stalls and writer cost show here.",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// templates resolves the cycle into templates, in declaration order.
func (w workload) templates() ([]template, error) {
	out := make([]template, 0, len(w.cycle))
	for _, name := range w.cycle {
		if name == insertTemplate {
			out = append(out, template{name: name})
			continue
		}
		query, format, ok := strings.Cut(name, ".")
		if !ok {
			format = formatJSON
		}
		text, err := queryFS.ReadFile("queries/" + query + ".rq")
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		out = append(out, template{name: name, query: query, format: format, text: string(text)})
	}
	return out, nil
}

// schedule returns the order in which every client walks the n
// templates of a cycle: a permutation fixed by the seed.
func schedule(seed uint64, n int) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(n)
}

// startOffset spreads the clients evenly over the cycle so that they
// do not send the same template at the same moment.
func startOffset(client, clients, n int) int { return client * n / clients }

// pinnedSeed is the seed expected.json was recorded with.
const pinnedSeed = 1

// pinnedCounts returns the recorded row count of every query at a
// scale, for pinnedSeed.
func pinnedCounts(scale int64) (map[string]int64, error) {
	var all map[string]map[string]int64
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	counts, ok := all[strconv.FormatInt(scale, 10)]
	if !ok {
		return nil, fmt.Errorf("expected.json: no counts for scale %d", scale)
	}
	return counts, nil
}
