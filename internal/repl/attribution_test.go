package repl

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/trace"
)

// blockingReaderAt blocks its at-th ReadAt call until release is closed,
// closing reached when the call arrives. Set at before the reads it counts
// can run concurrently.
type blockingReaderAt struct {
	r                io.ReaderAt
	calls            atomic.Int64
	at               int64
	reached, release chan struct{}
}

func (b *blockingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if b.calls.Add(1) == b.at {
		close(b.reached)
		<-b.release
	}
	return b.r.ReadAt(p, off)
}

// TestOverlappingExecutionsReportOwnIO: an execution's report holds the
// reads made under its context and no others, however executions overlap.
// A scan is held mid-read while a second execution, which reads nothing,
// runs start to finish beside it.
func TestOverlappingExecutionsReportOwnIO(t *testing.T) {
	path := writeNC1D(t, t.TempDir(), 256)
	s := newSession(t)
	defer s.Close()
	s.SetTileConfig(16, 0, true) // 16 tiles, no prefetch: one read each
	gate := &blockingReaderAt{reached: make(chan struct{}), release: make(chan struct{})}
	injectReader(t, s, path, func(r io.ReaderAt) io.ReaderAt {
		gate.r = r
		return gate
	})
	// Header parsing is done: block the third data read.
	gate.at = gate.calls.Load() + 3
	if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
		t.Fatal(err)
	}
	scan, err := s.Prepare(`summap(fn \i => W[i])!(gen!256)`)
	if err != nil {
		t.Fatal(err)
	}
	// guarded runs one execution through the session's guard, reporting to
	// a report of its own.
	guarded := func(src string, run func(ctx context.Context) error) (*trace.QueryReport, error) {
		rep := s.OpenReport(src)
		err := s.Guard(context.Background(), rep, src, func(ctx context.Context, w *Work) error {
			return run(ctx)
		})
		s.FinishReport(rep, err)
		return rep, err
	}

	var repA *trace.QueryReport
	var errA error
	done := make(chan struct{})
	go func() {
		defer close(done)
		repA, errA = guarded("A", func(ctx context.Context) error {
			_, _, err := scan.Prog.Execute(ctx, compile.ExecOpts{Limits: s.Limits})
			return err
		})
	}()
	<-gate.reached
	repB, _ := guarded("B", func(context.Context) error { return nil })
	close(gate.release)
	<-done

	if errA != nil {
		t.Fatalf("scan failed: %v", errA)
	}
	if io := repB.IO; io.SlabReads != 0 || io.BytesRead != 0 {
		t.Errorf("B, which read nothing, reports %d slab reads / %d bytes; want 0 / 0", io.SlabReads, io.BytesRead)
	}
	if io := repA.IO; io.SlabReads != 16 || io.BytesRead != 2048 {
		t.Errorf("A reports %d slab reads / %d bytes; want 16 / 2048", io.SlabReads, io.BytesRead)
	}
}

// TestWholeArrayComparisonReportsItsReads: `W = W` materializes W under its
// execution's context, so its report has every tile's read and miss.
func TestWholeArrayComparisonReportsItsReads(t *testing.T) {
	path := writeNC1D(t, t.TempDir(), 256)
	for _, engine := range []string{EngineCompiled, EngineInterp} {
		s := newSession(t)
		s.Engine = engine
		s.SetTileConfig(16, 0, true)
		if _, err := s.Exec(fmt.Sprintf(`readval \W using NETCDF at (%q, "series");`, path)); err != nil {
			t.Fatal(err)
		}
		if v, _, err := s.Query(`W = W`); err != nil || !v.B {
			t.Fatalf("%s: W = W is %v, %v; want true", engine, v, err)
		}
		if io := s.LastReport().IO; io.SlabReads != 16 || io.BytesRead != 2048 || io.TileMisses != 16 {
			t.Errorf("%s: W = W reports %d slab reads, %d bytes, %d tile misses; want 16, 2048, 16",
				engine, io.SlabReads, io.BytesRead, io.TileMisses)
		}
		s.Close()
	}
}
