package repl

import (
	"context"
	"strings"
	"testing"
)

// TestHelpListsEveryCommand walks the command table and asserts every
// registered command (with its usage and summary) appears in :help, so a
// new command can't silently miss the help text.
func TestHelpListsEveryCommand(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	help, err := s.Command(context.Background(), ":help")
	if err != nil {
		t.Fatalf(":help: %v", err)
	}
	names := CommandNames()
	if len(names) == 0 {
		t.Fatal("no commands registered")
	}
	for _, name := range names {
		c := commands[name]
		if !strings.Contains(help, c.usage) {
			t.Errorf(":help is missing the usage line for %s (%q)", name, c.usage)
		}
		if !strings.Contains(help, c.summary) {
			t.Errorf(":help is missing the summary for %s (%q)", name, c.summary)
		}
	}
}

// TestCommandTableComplete pins the commands the ISSUE and docs promise, so
// a table edit can't silently drop one.
func TestCommandTableComplete(t *testing.T) {
	want := []string{":explain", ":profile", ":stats", ":top", ":prof", ":engine", ":prepare", ":exec", ":help"}
	have := map[string]bool{}
	for _, name := range CommandNames() {
		have[name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("command table is missing %s", name)
		}
	}
}

// TestEveryCommandRuns smoke-runs each registered command through the
// dispatcher (with a benign argument where one is required), so table
// entries can't rot unexercised.
func TestEveryCommandRuns(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	args := map[string]string{
		":explain": " 1 + 1",
		":profile": " 1 + 1",
		":exec":    " n=1",
	}
	// :exec runs before :prepare in sorted order; give it a statement.
	if _, err := s.Command(context.Background(), ":prepare $n + 1"); err != nil {
		t.Fatalf(":prepare: %v", err)
	}
	for _, name := range CommandNames() {
		out, err := s.Command(context.Background(), name+args[name])
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if out == "" {
			t.Errorf("%s produced no output", name)
		}
	}
}
