package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestJSONReportRoundTrip(t *testing.T) {
	rep := &Report{Config: Config{
		Scales:         []Scale{{Name: "10k"}, {Name: "50k"}},
		PenaltySeconds: 3600, Runs: 1, Timeout: time.Second,
	}}
	for _, c := range []struct {
		scale, query string
		wall         time.Duration
	}{
		{"10k", "q1", 10 * time.Millisecond}, {"10k", "q4", 200 * time.Millisecond},
		{"50k", "q1", 20 * time.Millisecond}, {"50k", "q4", 900 * time.Millisecond},
	} {
		rep.Runs = append(rep.Runs, QueryRun{Query: c.query, Engine: "native", Scale: c.scale, Wall: c.wall})
	}
	rep.Loading = []LoadStats{{Scale: "10k", Engine: "native", Wall: time.Second, Triples: 10000, Source: "snapshot"}}

	j := rep.JSONReport()
	if j.Schema != "sp2bench-report/4" {
		t.Fatalf("schema %q", j.Schema)
	}
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.CreatedAt != j.CreatedAt {
		t.Fatal("header did not survive the round trip")
	}
	if len(back.Runs) != len(j.Runs) || len(back.Means) != len(j.Means) || len(back.Means) != 2 {
		t.Fatalf("runs/means lost: %d/%d vs %d/%d", len(back.Runs), len(back.Means), len(j.Runs), len(j.Means))
	}
	for i, m := range back.Means {
		if m != j.Means[i] {
			t.Fatalf("means row %d: %+v vs %+v", i, m, j.Means[i])
		}
	}
	if len(back.Loading) != 1 || back.Loading[0] != j.Loading[0] {
		t.Fatal("loading rows lost in round trip")
	}
}

// TestJSONReportRecordsPlan: a measured sweep cell carries the physical
// plan the backend ran into the report's runs[].plan — Q5a's implicit
// join on the native engine is the hashed disconnected block.
func TestJSONReportRecordsPlan(t *testing.T) {
	cfg := miniConfig(t)
	cfg.QueryIDs = []string{"q5a"}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.JSONReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": "sp2bench-report/4"`) {
		t.Fatalf("report does not declare sp2bench-report/4:\n%.200s", buf.String())
	}
	var back struct {
		Runs []struct {
			Query, Engine, Scale, Outcome, Plan string
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(back.Runs))
	}
	run := back.Runs[0]
	if run.Query != "q5a" || run.Engine != "native" || run.Scale != "10k" || run.Outcome != "Success" {
		t.Fatalf("wrong cell: %+v", run)
	}
	if !strings.Contains(run.Plan, "hashseg[key=") {
		t.Fatalf("q5a plan lacks the hashed block:\n%s", run.Plan)
	}
}
