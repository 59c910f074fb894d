package main

import (
	"flag"
	"testing"

	"phylomem/internal/placement"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"--list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"--scale", "64", "--reps", "1", "--max-queries", "30", "--threads", "1", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"--scale", "64", "--reps", "1", "--max-queries", "30", "--csv", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no experiment accepted")
	}
	if err := run([]string{"bogus-experiment"}); err == nil {
		t.Error("bogus experiment accepted")
	}
	if err := run([]string{"--threads", "0,x", "table1"}); err == nil {
		t.Error("bogus thread sweep accepted")
	}
	if err := run([]string{"--datasets", "nope", "table2"}); err == nil {
		t.Error("bogus dataset accepted")
	}
}

// TestRunEngineFlagErrors: an unknown engine-flag value fails with the
// shared binder's error text, before any dataset is synthesized.
func TestRunEngineFlagErrors(t *testing.T) {
	for _, kv := range [][2]string{{"scoring", "bogus"}, {"clv-spill-policy", "bogus"}} {
		fs := flag.NewFlagSet("want", flag.ContinueOnError)
		f := placement.BindFlags(fs, kv[0])
		if err := fs.Parse([]string{"--" + kv[0], kv[1]}); err != nil {
			t.Fatal(err)
		}
		_, want := f.Config()
		err := run([]string{"--" + kv[0], kv[1], "table1"})
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("--%s %s: error %v, want %v", kv[0], kv[1], err, want)
		}
	}
}
