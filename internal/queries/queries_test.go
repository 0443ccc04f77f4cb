package queries

import (
	"strings"
	"testing"

	"sp2bench/internal/sparql"
)

func TestCatalogCompleteness(t *testing.T) {
	// 17 queries: Q1, Q2, Q3abc, Q4, Q5ab, Q6-Q11, Q12abc.
	all := All()
	if len(all) != 17 {
		t.Fatalf("catalog has %d queries, want 17", len(all))
	}
	want := []string{
		"q1", "q2", "q3a", "q3b", "q3c", "q4", "q5a", "q5b",
		"q6", "q7", "q8", "q9", "q10", "q11", "q12a", "q12b", "q12c",
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("query %d has ID %s, want %s", i, all[i].ID, id)
		}
	}
	if got := IDs(); len(got) != 17 || got[0] != "q1" || got[16] != "q12c" {
		t.Errorf("IDs() = %v", got)
	}
}

func TestAllQueriesParse(t *testing.T) {
	for _, q := range All() {
		t.Run(q.ID, func(t *testing.T) {
			parsed, err := sparql.Parse(q.Text, Prologue)
			if err != nil {
				t.Fatalf("query %s does not parse: %v", q.ID, err)
			}
			if parsed.Where == nil {
				t.Fatal("no WHERE clause")
			}
		})
	}
}

func TestByID(t *testing.T) {
	q, ok := ByID("q3b")
	if !ok || q.ID != "q3b" {
		t.Fatal("ByID(q3b) failed")
	}
	if _, ok := ByID("q99"); ok {
		t.Fatal("ByID(q99) should fail")
	}
}

func TestQueryForms(t *testing.T) {
	asks := map[string]bool{"q12a": true, "q12b": true, "q12c": true}
	for _, q := range All() {
		form := q.Parse().Form
		if asks[q.ID] && form != sparql.FormAsk {
			t.Errorf("%s must be ASK", q.ID)
		}
		if !asks[q.ID] && form != sparql.FormSelect {
			t.Errorf("%s must be SELECT", q.ID)
		}
	}
}

// TestTableIIOperators verifies the Table II metadata against the actual
// query texts: every listed operator occurs, and no unlisted one does.
func TestTableIIOperators(t *testing.T) {
	for _, q := range All() {
		t.Run(q.ID, func(t *testing.T) {
			text := strings.ToUpper(q.Text)
			has := map[string]bool{
				"FILTER":   strings.Contains(text, "FILTER"),
				"UNION":    strings.Contains(text, "UNION"),
				"OPTIONAL": strings.Contains(text, "OPTIONAL"),
			}
			listed := map[string]bool{}
			for _, op := range q.Operators {
				listed[op] = true
			}
			for _, op := range []string{"FILTER", "UNION", "OPTIONAL"} {
				if has[op] && !listed[op] {
					t.Errorf("query uses %s but Table II metadata omits it", op)
				}
				if !has[op] && listed[op] {
					t.Errorf("Table II metadata lists %s but query does not use it", op)
				}
			}
		})
	}
}

// TestTableIIModifiers does the same for the solution modifiers.
func TestTableIIModifiers(t *testing.T) {
	for _, q := range All() {
		t.Run(q.ID, func(t *testing.T) {
			p := q.Parse()
			listed := map[string]bool{}
			for _, m := range q.Modifiers {
				listed[m] = true
			}
			if p.Distinct != listed["DISTINCT"] {
				t.Errorf("DISTINCT mismatch: query=%v metadata=%v", p.Distinct, listed["DISTINCT"])
			}
			if (p.Limit >= 0) != listed["LIMIT"] {
				t.Errorf("LIMIT mismatch")
			}
			if (p.Offset >= 0) != listed["OFFSET"] {
				t.Errorf("OFFSET mismatch")
			}
			if (len(p.OrderBy) > 0) != listed["ORDER BY"] {
				t.Errorf("ORDER BY mismatch")
			}
		})
	}
}

func TestPaperSpecifics(t *testing.T) {
	// Q1 targets the fixed journal.
	q1, _ := ByID("q1")
	if !strings.Contains(q1.Text, `"Journal 1 (1940)"`) {
		t.Error("Q1 must reference Journal 1 (1940)")
	}
	// Q3a/b/c differ only in the filter property.
	for id, prop := range map[string]string{
		"q3a": "swrc:pages", "q3b": "swrc:month", "q3c": "swrc:isbn",
	} {
		q, _ := ByID(id)
		if !strings.Contains(q.Text, prop) {
			t.Errorf("%s must filter on %s", id, prop)
		}
	}
	// Q8/Q12b pivot on Paul Erdoes; Q12c on John Q. Public.
	for _, id := range []string{"q8", "q12b"} {
		q, _ := ByID(id)
		if !strings.Contains(q.Text, "Paul Erdoes") {
			t.Errorf("%s must reference Paul Erdoes", id)
		}
	}
	q12c, _ := ByID("q12c")
	if !strings.Contains(q12c.Text, "John_Q_Public") {
		t.Error("Q12c must probe John_Q_Public")
	}
	// Q11's modifier stack.
	q11, _ := ByID("q11")
	p := q11.Parse()
	if p.Limit != 10 || p.Offset != 50 {
		t.Errorf("Q11 limit/offset = %d/%d, want 10/50", p.Limit, p.Offset)
	}
	// Q6 and Q7 encode negation: OPTIONAL + !bound.
	for _, id := range []string{"q6", "q7"} {
		q, _ := ByID(id)
		if !strings.Contains(q.Text, "!bound(") {
			t.Errorf("%s must use the !bound negation encoding", id)
		}
	}
	// Q7 nests OPTIONALs (double negation).
	q7, _ := ByID("q7")
	if strings.Count(q7.Text, "OPTIONAL") != 2 {
		t.Error("Q7 must contain two nested OPTIONALs")
	}
}

func TestDescriptionsPresent(t *testing.T) {
	for _, q := range All() {
		if q.Description == "" {
			t.Errorf("%s lacks a description", q.ID)
		}
		if len(q.DataAccess) == 0 {
			t.Errorf("%s lacks data-access metadata", q.ID)
		}
	}
}
