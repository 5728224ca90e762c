package repl

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/trace"
)

func TestIsCommand(t *testing.T) {
	for _, tc := range []struct {
		line string
		want bool
	}{
		{":explain gen!3", true},
		{"  :stats", true},
		{":help", true},
		{"gen!3;", false},
		{"", false},
		{"val \\x = 3;", false},
	} {
		if got := IsCommand(tc.line); got != tc.want {
			t.Errorf("IsCommand(%q) = %v, want %v", tc.line, got, tc.want)
		}
	}
}

func TestCommandExplain(t *testing.T) {
	s := newSession(t)
	out, err := s.Command(context.Background(), `:explain [[ i*i | \i < 10 ]][4]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"type: nat", "core:", "optimized:", "beta-p"} {
		if !strings.Contains(out, want) {
			t.Errorf(":explain output missing %q:\n%s", want, out)
		}
	}
	// beta^p collapses the subscripted tabulation; the optimized query must
	// be smaller than the core one and mention no tabulation.
	if !strings.Contains(out, "rule firings") {
		t.Errorf(":explain missing firing table:\n%s", out)
	}
}

func TestCommandExplainNoRules(t *testing.T) {
	s := newSession(t)
	out, err := s.Command(context.Background(), ":explain 7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no optimizer rules fired") {
		t.Errorf("trivial query should fire no rules:\n%s", out)
	}
}

func TestCommandProfile(t *testing.T) {
	s := newSession(t)
	out, err := s.Command(context.Background(), `:profile summap(fn \i => i)!(gen!100)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"profile of", "wall total", "eval", "steps", "cells"} {
		if !strings.Contains(out, want) {
			t.Errorf(":profile output missing %q:\n%s", want, out)
		}
	}
	// The profiled query still binds `it`.
	v, _, err := s.Query("it")
	if err != nil {
		t.Fatal(err)
	}
	if v.N != 4950 {
		t.Errorf("it = %s after :profile, want 4950", v)
	}
}

func TestCommandProfileFailingQuery(t *testing.T) {
	s := newSession(t)
	s.Limits.MaxSteps = 10
	out, err := s.Command(context.Background(), `:profile summap(fn \i => i)!(gen!10000)`)
	if err != nil {
		t.Fatalf(":profile of failing query should render, got error %v", err)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("profile of failing query must show the error:\n%s", out)
	}
}

func TestCommandStats(t *testing.T) {
	s := newSession(t)
	if _, _, err := s.Query("gen!5"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query("1+1"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Command(context.Background(), ":stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 queries") {
		t.Errorf(":stats should report 2 queries:\n%s", out)
	}
	if !strings.Contains(out, "steps") {
		t.Errorf(":stats missing counters:\n%s", out)
	}
}

func TestCommandHelpAndErrors(t *testing.T) {
	s := newSession(t)
	out, err := s.Command(context.Background(), ":help")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{":explain", ":profile", ":stats"} {
		if !strings.Contains(out, want) {
			t.Errorf(":help missing %q", want)
		}
	}
	if _, err := s.Command(context.Background(), ":bogus"); err == nil {
		t.Error("unknown command should error")
	}
	if _, err := s.Command(context.Background(), ":explain"); err == nil {
		t.Error(":explain without a query should error")
	}
	if _, err := s.Command(context.Background(), ":profile"); err == nil {
		t.Error(":profile without a query should error")
	}
}

func TestProfileReportsNetCDFIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "io.nc")
	b := netcdf.NewBuilder()
	d0, _ := b.AddDim("x", 8)
	data := make([]float64, 8)
	for i := range data {
		data[i] = float64(i)
	}
	if err := b.AddVar("v", netcdf.Double, []int{d0}, nil, data); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	s := newSession(t)
	src := fmt.Sprintf(`readval \V using NETCDF at (%q, "v");`, path)
	if _, err := s.Exec(src); err != nil {
		t.Fatal(err)
	}
	rep := s.LastReport()
	if rep == nil {
		t.Fatal("no report for readval")
	}
	if !strings.HasPrefix(rep.Query, "readval V using NETCDF") {
		t.Errorf("report label = %q", rep.Query)
	}
	// Reads are lazy: the readval binds a tiled array without touching the
	// data region; the I/O lands on the query that scans it.
	if _, _, err := s.Query(`[[ V[i] | \i < 8 ]]`); err != nil {
		t.Fatal(err)
	}
	rep = s.LastReport()
	if rep.IO.SlabReads != 1 {
		t.Errorf("SlabReads = %d, want 1", rep.IO.SlabReads)
	}
	if rep.IO.BytesRead != 8*8 {
		t.Errorf("BytesRead = %d, want 64", rep.IO.BytesRead)
	}
	if rep.IO.TileMisses == 0 {
		t.Errorf("TileMisses = 0, want > 0 after a lazy scan")
	}
	if rep.IO.BytesScanned == 0 || rep.IO.BytesReturned == 0 {
		t.Errorf("bytes scanned/returned = %d/%d, want non-zero", rep.IO.BytesScanned, rep.IO.BytesReturned)
	}
	// :stats shows the I/O block once any I/O happened.
	out, err := s.Command(context.Background(), ":stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "slab reads") {
		t.Errorf(":stats missing I/O counters after readval:\n%s", out)
	}
}

func TestEvalCounterAccuracy(t *testing.T) {
	s := newSession(t)
	// A 6-element tabulation: exactly one tabulation, exactly 6 cells.
	if _, _, err := s.Query(`[[ i | \i < 6 ]]`); err != nil {
		t.Fatal(err)
	}
	rep := s.LastReport()
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Eval.Tabulations != 1 {
		t.Errorf("Tabulations = %d, want 1", rep.Eval.Tabulations)
	}
	if rep.Eval.Cells != 6 {
		t.Errorf("Cells = %d, want 6", rep.Eval.Cells)
	}
	if rep.Eval.Steps != s.LastSteps.Load() {
		t.Errorf("report steps %d != LastSteps %d", rep.Eval.Steps, s.LastSteps.Load())
	}

	// gen! is one set operation producing n cells.
	if _, _, err := s.Query(`gen!4`); err != nil {
		t.Fatal(err)
	}
	rep = s.LastReport()
	if rep.Eval.SetOps == 0 {
		t.Errorf("gen recorded no set ops: %+v", rep.Eval)
	}
	if rep.Eval.Cells != 4 {
		t.Errorf("gen!4 Cells = %d, want 4", rep.Eval.Cells)
	}

	// Summation over a 10-element set iterates 10 times.
	if _, _, err := s.Query(`summap(fn \i => i)!(gen!10)`); err != nil {
		t.Fatal(err)
	}
	rep = s.LastReport()
	if rep.Eval.Iterations < 10 {
		t.Errorf("summap over 10 elements iterated %d times", rep.Eval.Iterations)
	}
}

func TestTraceDisabledSessionStillWorks(t *testing.T) {
	s := newSession(t)
	s.Recording.Store(false)
	v, _, err := s.Query("1+2")
	if err != nil {
		t.Fatal(err)
	}
	if v.N != 3 {
		t.Fatalf("1+2 = %s", v)
	}
	if s.LastReport() != nil {
		t.Error("disabled trace produced a report")
	}
	out, err := s.Command(context.Background(), `:profile 1+2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tracing disabled") {
		t.Errorf(":profile with tracing off = %q", out)
	}
	// :explain analyze joins against the report its own run built, which
	// recording off leaves unemitted.
	out, err = s.Command(context.Background(), `:explain analyze [[ i * i | \i < 12 ]]`)
	if err != nil {
		t.Fatalf(":explain analyze with tracing off: %v", err)
	}
	if !strings.Contains(out, "ArrayTab") || !strings.Contains(out, "q-err") {
		t.Errorf(":explain analyze with tracing off shows no joined table:\n%s", out)
	}
	if s.LastReport() != nil || s.Fleet.Snapshot().Totals.Queries != 0 || s.Flight.Total() != 0 {
		t.Error(":explain analyze with tracing off emitted a report")
	}
}

func TestSetupStatementsExcludedFromStats(t *testing.T) {
	s := newSession(t)
	if got := s.Fleet.Snapshot().Totals.Queries; got != 0 {
		t.Errorf("fresh session already counts %d queries (setup leaked into stats)", got)
	}
	if got := s.Flight.Total(); got != 0 {
		t.Errorf("fresh session's flight recorder holds %d reports (setup leaked)", got)
	}
	if s.LastReport() != nil {
		t.Errorf("fresh session has a last report: %q", s.LastReport().Query)
	}
}

func TestQueryReportPhases(t *testing.T) {
	s := newSession(t)
	if _, _, err := s.Query(`[[ i+1 | \i < 3 ]]`); err != nil {
		t.Fatal(err)
	}
	rep := s.LastReport()
	for _, phase := range []string{trace.PhaseParse, trace.PhaseDesugar, trace.PhaseMacro, trace.PhaseTypecheck, trace.PhaseOptimize, trace.PhaseEval} {
		found := false
		for _, p := range rep.Phases {
			if p.Name == phase {
				found = true
			}
		}
		if !found {
			t.Errorf("report missing phase %q (has %+v)", phase, rep.Phases)
		}
	}
}
