package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sp2bench/internal/gen"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
)

// dataset is one generated document, as the server, the load generator
// and the traced run need it.
type dataset struct {
	snapshot string       // path of the .sp2b file the server loads
	store    *store.Store // the same document, loaded in this process
	batches  [][]byte     // insert batches cut from the generator's continuation
}

// generate runs the generator for seed up to a triple limit and returns
// the N-Triples document.
func generate(seed uint64, limit int64) ([]byte, *gen.Stats, error) {
	p := gen.DefaultParams(limit)
	p.Seed = seed
	var doc bytes.Buffer
	g, err := gen.New(p, &doc)
	if err != nil {
		return nil, nil, err
	}
	stats, err := g.Generate()
	if err != nil {
		return nil, nil, err
	}
	return doc.Bytes(), stats, nil
}

// buildDataset generates the document of a scale, loads it, and writes
// its snapshot into dir. With tail > 0 it also generates the document
// of scale+tail triples — of which the first is a byte prefix — and
// cuts the continuation into insert batches.
func buildDataset(tr *tracer, parent *span, dir string, seed uint64, scale, tail int64) (*dataset, error) {
	sp := tr.begin(spanGenerate, "", parent)
	doc, stats, err := generate(seed, scale)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generating %d triples: %w", scale, err)
	}
	sp.count(stats.Triples, int64(len(doc)))

	st := store.New()
	sp = tr.begin(spanLoad, "", parent)
	_, err = st.Load(bytes.NewReader(doc))
	tr.end(sp)
	ds := &dataset{snapshot: filepath.Join(dir, "doc.sp2b"), store: st}
	if err != nil {
		return nil, fmt.Errorf("loading the generated document: %w", err)
	}
	sp.count(int64(ds.store.Len()), int64(len(doc)))

	sp = tr.begin(spanSnapWrite, "", parent)
	err = snapshot.WriteFile(ds.snapshot, ds.store)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("writing the snapshot: %w", err)
	}
	if fi, err := os.Stat(ds.snapshot); err == nil {
		sp.count(int64(ds.store.Len()), fi.Size())
	}

	if tail > 0 {
		sp = tr.begin(spanGenerate, "", parent)
		long, longStats, err := generate(seed, scale+tail)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("generating %d triples: %w", scale+tail, err)
		}
		sp.count(longStats.Triples, int64(len(long)))
		if !bytes.HasPrefix(long, doc) {
			return nil, errors.New("the generator's longer document does not continue the shorter one")
		}
		ds.batches = cutBatches(long[len(doc):], batchTriples)
	}
	return ds, nil
}

// cutBatches splits N-Triples text into batches of n lines, dropping a
// short last one.
func cutBatches(text []byte, n int) [][]byte {
	var out [][]byte
	start, lines := 0, 0
	for i, b := range text {
		if b != '\n' {
			continue
		}
		lines++
		if lines == n {
			out = append(out, text[start:i+1])
			start, lines = i+1, 0
		}
	}
	return out
}

// child is a running sp2bserve process.
type child struct {
	cmd    *exec.Cmd
	base   string // "http://127.0.0.1:port"
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has ended and been reaped
	wg     sync.WaitGroup
}

// healthDeadline bounds the wait for /healthz to answer ok.
const healthDeadline = 30 * time.Second

// startServer spawns bin on a free loopback port in its default
// configuration (plus -updates for the mutable workload) and returns
// once /healthz answers ok. The caller must stop the server.
func startServer(ctx context.Context, bin, snapshotPath string, updates bool) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	args := []string{"-d", snapshotPath, "-addr", addr, "-quiet"}
	if updates {
		args = append(args, "-updates")
	}
	s := &child{cmd: exec.CommandContext(ctx, bin, args...), base: "http://" + addr, exited: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.cmd.Wait() // the exit status of a killed child says nothing
		close(s.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(healthDeadline)
	for {
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("sp2bserve exited before becoming healthy: %s", strings.TrimSpace(s.stderr.String()))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("sp2bserve not healthy after %v: %s", healthDeadline, strings.TrimSpace(s.stderr.String()))
		}
	}
}

// stop kills the child and waits until it has been reaped.
func (s *child) stop() {
	_ = s.cmd.Process.Kill() // fails only when the child has already ended
	s.wg.Wait()
}

// alive reports whether the child is still running.
func (s *child) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// peakRSSMB reads the child's memory high-water mark (VmHWM), the
// paper's memory metric, from /proc.
func (s *child) peakRSSMB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid)
	status, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %q: %w", path, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// buildServer compiles cmd/sp2bserve from the working tree into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "sp2bserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "sp2bench/cmd/sp2bserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build sp2bench/cmd/sp2bserve: %w\n%s", err, out)
	}
	return bin, nil
}
