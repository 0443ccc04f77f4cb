// Command bench is the repository's one committed benchmark: it builds
// cmd/sp2bserve from the working tree, serves a generated document from
// a child process in its default configuration, drives it closed-loop
// over loopback HTTP, checks every response, and prints client-observed
// metrics by name and unit. A separate traced run replays the same
// templates in process and times the calls into each layer. See
// README.md in this directory for the metrics, the workloads and how to
// read the output.
//
// Usage:
//
//	go run ./bench                       # every workload, end to end and traced
//	go run ./bench -workload join-250k   # one workload; last stdout line is a JSON result
//	go run ./bench -workload join-250k -seed 7 -seconds 12 -trace 1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the measured window, BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// setupRuns is how often a run sets up from nothing (generate, load,
// write the snapshot, start the server) to report a median set-up
// time; the last set-up is the one that gets measured against.
const setupRuns = 3

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with a JSON result line (default: all, traced)")
		seed         = flag.Uint64("seed", pinnedSeed, "seeds the generator and the template order")
		seconds      = flag.Int("seconds", defaultSeconds, "measured window per workload, in seconds")
		trace        = flag.Int("trace", 0, "with -workload: 1 adds the traced run and reports the per-layer metrics")
		out          = flag.String("out", "", "directory for trace-<workload>.json (default .bench_build/out in the module root)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Stdout, *workloadName, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose responses failed a check: the result
// is still printed, the exit status is not zero.
var errIncorrect = errors.New("response checks failed")

func run(ctx context.Context, w io.Writer, workloadName string, seed uint64, window time.Duration, traced bool, out string) error {
	root, err := moduleRoot(ctx)
	if err != nil {
		return err
	}
	work := filepath.Join(root, ".bench_build")
	if out == "" {
		out = filepath.Join(work, "out")
	}
	for _, dir := range []string{work, out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	bin, err := buildServer(ctx, work)
	if err != nil {
		return err
	}
	env := recordEnv(ctx, seed)
	env.print(w)

	r := runner{bin: bin, work: work, out: out, env: env, seed: seed, window: window}
	if workloadName != "" {
		wl, ok := workloadByName(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		return r.runWorkload(ctx, w, wl, traced, true)
	}
	var failed []string
	for _, wl := range workloads {
		if err := r.runWorkload(ctx, w, wl, true, false); errors.Is(err, errIncorrect) {
			failed = append(failed, wl.name)
		} else if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w on %s", errIncorrect, strings.Join(failed, ", "))
	}
	return nil
}

// runner carries what every workload of one invocation shares.
type runner struct {
	bin, work, out string
	env            environment
	seed           uint64
	window         time.Duration
}

// result is the last line of standard output for a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload measures one workload end to end and, when traced, layer
// by layer. The end-to-end part is the same protocol either way, so a
// traced invocation's end-to-end numbers can be held against an
// untraced one's: the difference is what tracing costs.
func (r *runner) runWorkload(ctx context.Context, w io.Writer, wl workload, traced, resultLine bool) error {
	templates, err := wl.templates()
	if err != nil {
		return err
	}
	order := schedule(r.seed, len(templates))
	warm := r.window / 3
	fmt.Fprintf(w, "\nworkload %s: %d triples, %d closed-loop client(s), cycle %s, warm-up >=%v and >=%d cycles, window >=%v in whole cycles\n",
		wl.name, wl.scale, wl.clients, cycleString(templates, order), warm, warmCycles, r.window)

	var tr *tracer
	tail := wl.tailTriples
	if traced {
		tr = newTracer(wl.name)
		tail = max(tail, tracedTail(wl))
	}

	// Set up from nothing several times; measure against the last.
	var (
		setups []float64
		ds     *dataset
		srv    *child
		dir    string
	)
	cleanup := func() {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		if dir != "" {
			os.RemoveAll(dir)
			dir = ""
		}
	}
	defer cleanup()
	for i := 0; i < setupRuns; i++ {
		cleanup()
		runtime.GC() // the previous set-up's document is garbage: do not time its collection
		start := time.Now()
		sp := tr.begin(spanSetup, "", nil)
		if dir, err = os.MkdirTemp(r.work, "run-"); err != nil {
			return err
		}
		if ds, err = buildDataset(tr, sp, dir, r.seed, wl.scale, tail); err != nil {
			return err
		}
		st := tr.begin(spanStart, "", sp)
		srv, err = startServer(ctx, r.bin, ds.snapshot, wl.updates)
		tr.end(st)
		tr.end(sp)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// What a correct response looks like.
	var expected map[string]int64
	switch {
	case wl.updates:
		// Counts move as inserts land; bodies are checked for being
		// complete, and the store's final size against the acknowledgements.
	case r.seed == pinnedSeed:
		if expected, err = pinnedCounts(wl.scale); err != nil {
			return err
		}
	default:
		if expected, err = expectedCounts(ctx, ds.store, templates); err != nil {
			return err
		}
	}
	baseTriples, err := statsTriples(ctx, srv.base)
	if err != nil {
		return err
	}
	if baseTriples != int64(ds.store.Len()) {
		return fmt.Errorf("server holds %d triples, the generated document %d", baseTriples, ds.store.Len())
	}

	clientCPU0, serverCPU0 := cpuSeconds(os.Getpid()), cpuSeconds(srv.cmd.Process.Pid)
	loadStart := time.Now()
	res := runLoad(ctx, loadConfig{
		base: srv.base, templates: templates, order: order, clients: wl.clients,
		expected: expected, batches: ds.batches, warm: warm, window: r.window, alive: srv.alive,
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	loadSeconds := time.Since(loadStart).Seconds() * float64(r.env.NProc)
	clientCPU, serverCPU := cpuSeconds(os.Getpid())-clientCPU0, cpuSeconds(srv.cmd.Process.Pid)-serverCPU0

	correct := res.failed == 0 && len(res.failures) == 0
	rss, err := srv.peakRSSMB()
	if err != nil {
		if srv.alive() {
			return err
		}
		res.failures = append(res.failures, "server exited during the run: "+strings.TrimSpace(srv.stderr.String()))
		correct = false
	}
	if wl.updates && correct {
		final, err := statsTriples(ctx, srv.base)
		if err != nil {
			return err
		}
		if want := baseTriples + res.inserted; final != want {
			res.failures = append(res.failures, fmt.Sprintf("/stats reports %d triples, base %d + acknowledged inserts %d = %d", final, baseTriples, res.inserted, want))
			correct = false
		}
	}
	e2e := summarizeLoad(templates, res, setups, rss)
	e2e.ClientCPU, e2e.ServerCPU = clientCPU/loadSeconds, serverCPU/loadSeconds
	e2e.print(w)

	values, defs := e2e.Values, endToEndMetrics
	if traced {
		// The server idles while this process replays the cycle.
		if err := tracedRun(ctx, tr, wl, templates, order, ds, r.window/2); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		l := summarizeSpans(tr, templates, e2e)
		l.print(w)
		path := filepath.Join(r.out, "trace-"+wl.name+".json")
		if err := writeTrace(path, r.env, wl, e2e, l, tr); err != nil {
			return err
		}
		fmt.Fprintf(w, "  %d spans written to %s\n", len(tr.spans), path)
		values, defs = l.Values, perLayerMetrics
	}
	if resultLine {
		metrics, err := pick(defs, values)
		if err != nil {
			return err
		}
		line, err := json.Marshal(result{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

func cycleString(templates []template, order []int) string {
	names := make([]string, len(order))
	for i, t := range order {
		names[i] = templates[t].name
	}
	return strings.Join(names, " ")
}

// writeTrace writes one workload's span file.
func writeTrace(path string, env environment, wl workload, e2e *endToEnd, l *layers, tr *tracer) error {
	doc := struct {
		Schema     string      `json:"schema"`
		Env        environment `json:"env"`
		Workload   string      `json:"workload"`
		EndToEnd   *endToEnd   `json:"end_to_end"`
		Layers     *layers     `json:"per_layer"`
		SpanFields string      `json:"span_fields"`
		Spans      []span      `json:"spans"`
	}{
		Schema: "sp2bench-trace/1", Env: env, Workload: wl.name, EndToEnd: e2e, Layers: l,
		SpanFields: "times are ns on the tracer's clock, which stands still while the tracer works (tracer_stopped_ns in total); parent and request are span ids (0 = none); allocs and alloc_bytes are runtime.MemStats deltas",
		Spans:      tr.spans,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// environment is recorded in the output and in every trace file: a
// number means nothing without the machine it was taken on.
type environment struct {
	NProc            int    `json:"nproc"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	ServerGOMAXPROCS string `json:"server_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Kernel           string `json:"kernel"`
	Seed             uint64 `json:"seed"`
}

func recordEnv(ctx context.Context, seed uint64) environment {
	env := environment{
		NProc:            runtime.NumCPU(),
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		// The child inherits the environment and is given no flag that
		// changes its processor count: this is what its runtime picks.
		ServerGOMAXPROCS: strconv.Itoa(runtime.NumCPU()),
		GoVersion:        runtime.Version(),
		Commit:           "unknown",
		Kernel:           "unknown",
		Seed:             seed,
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		env.ServerGOMAXPROCS = v
	}
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "environment: nproc=%d client_gomaxprocs=%d server_gomaxprocs=%s %s commit=%s kernel=%s seed=%d\n",
		e.NProc, e.ClientGOMAXPROCS, e.ServerGOMAXPROCS, e.GoVersion, e.Commit, e.Kernel, e.Seed)
	if e.NProc < 2 {
		fmt.Fprintln(w, "WARNING: fewer than 2 processors: the engine's parallel scan and the 2-client workloads are not measuring what they name")
	}
}

// moduleRoot finds the directory of the go.mod this program was run in.
func moduleRoot(ctx context.Context) (string, error) {
	out, err := exec.CommandContext(ctx, "go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" || mod == os.DevNull {
		return "", errors.New("not inside the sp2bench module: run from the repository")
	}
	return filepath.Dir(mod), nil
}

// statsTriples asks the server's /stats for its triple count.
func statsTriples(ctx context.Context, base string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Triples *int64 `json:"triples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Triples == nil {
		return 0, fmt.Errorf("/stats: status %d, no triple count (%v)", resp.StatusCode, err)
	}
	return *doc.Triples, nil
}

// cpuSeconds reads a process's user+system CPU time from /proc (fields
// 14 and 15 of stat, in 100 Hz ticks); 0 when it cannot.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	_, rest, ok := strings.Cut(string(b), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(fields[11], 64)
	stime, _ := strconv.ParseFloat(fields[12], 64)
	return (utime + stime) / 100
}
