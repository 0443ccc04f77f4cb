package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestWorkloadModeEndToEnd drives the scenario engine through the
// harness at 10k scale — the acceptance path of
// `sp2bbench -mix ... -rate ... -duration ... -report out.json`
// compressed to test duration: open-loop mixed-update drive, report
// with per-query geometric means and a time series.
func TestWorkloadModeEndToEnd(t *testing.T) {
	cfg := miniConfig(t, nativeOnly())
	cfg.Mix = "mixed-update"
	cfg.Rate = 100
	cfg.WorkloadWarmup = 100 * time.Millisecond
	cfg.WorkloadDuration = 1 * time.Second
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 1 {
		t.Fatalf("got %d workload results, want 1", len(rep.Workloads))
	}
	res := rep.Workloads[0]
	if res.Scale != "10k" || res.Target != "native" || res.Mode != "open-loop" {
		t.Fatalf("wrong drive labels: %+v", res)
	}
	if res.Ops == 0 {
		t.Fatal("no operations measured")
	}
	if len(res.Series) == 0 {
		t.Fatal("no throughput time series")
	}
	if len(res.PerQuery) == 0 {
		t.Fatal("no per-query stats")
	}
	for _, qs := range res.PerQuery {
		if qs.Count > qs.Failures && qs.GeoMeanSeconds <= 0 {
			t.Errorf("%s: missing geometric mean", qs.ID)
		}
	}

	// The JSON report carries it all, schema-versioned.
	j := rep.JSONReport()
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{ReportSchema, `"workloads"`, `"series"`, `"geomean_seconds"`, `"mode": "open-loop"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON report missing %s", want)
		}
	}
	var back JSONReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != 1 || len(back.Workloads[0].PerQuery) != len(res.PerQuery) {
		t.Fatal("workload per-query stats lost in the JSON report")
	}

	// And the human-readable renderer shows the drive.
	var tab bytes.Buffer
	rep.RenderWorkloads(&tab)
	if !strings.Contains(tab.String(), "mixed-update") {
		t.Fatalf("RenderWorkloads missing the mix:\n%s", tab.String())
	}
}

func TestWorkloadModeClosedLoopMultiEngine(t *testing.T) {
	cfg := miniConfig(t, DefaultEngines()) // mem + native
	cfg.Mix = "q1:3,q10:2,update:1"
	cfg.Clients = 2
	cfg.WorkloadDuration = 300 * time.Millisecond
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 2 {
		t.Fatalf("got %d workload results, want one per engine", len(rep.Workloads))
	}
	// The update mix mutates the store: the second engine must have run
	// against a fresh load, not the first engine's grown store — both
	// start from the same 10k triples, so their footprints were equal
	// at load time.
	names := map[string]bool{}
	for _, res := range rep.Workloads {
		names[res.Target] = true
		if res.Ops == 0 {
			t.Errorf("%s: no ops", res.Target)
		}
	}
	if !names["mem"] || !names["native"] {
		t.Fatalf("missing engines: %v", names)
	}
}

func TestWorkloadModeRejectsBadMix(t *testing.T) {
	cfg := miniConfig(t, nativeOnly())
	cfg.Mix = "no-such-mix"
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("unknown mix must fail at validation")
	}
}
