package refdb

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"phylomem/internal/seq"
	"phylomem/internal/tree"
	"phylomem/internal/workload"
)

// writeSourceFiles writes a small dataset's tree and reference alignment and
// returns a Source naming them.
func writeSourceFiles(t *testing.T) Source {
	t.Helper()
	ds, err := workload.Neotrop(64, 59)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := Source{Tree: filepath.Join(dir, "ref.nwk"), RefMSA: filepath.Join(dir, "ref.fasta")}
	if err := os.WriteFile(src.Tree, []byte(ds.Tree.WriteNewick()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var fasta bytes.Buffer
	if err := seq.WriteFasta(&fasta, ds.RefMSA.Sequences); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src.RefMSA, fasta.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSourceLoadFilesAndDB: a tree + alignment source takes the default
// model with empirical frequencies, and a database saved from it loads back
// the same spec and frequencies.
func TestSourceLoadFilesAndDB(t *testing.T) {
	src := writeSourceFiles(t)
	ref, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Spec != "GTR+G4" || ref.Alphabet != seq.DNA || len(ref.Freqs) != 4 {
		t.Fatalf("files: spec %q, alphabet %v, freqs %v", ref.Spec, ref.Alphabet, ref.Freqs)
	}
	noEmp := false
	src.EmpFreqs = &noEmp
	if plain, err := src.Load(); err != nil || plain.Freqs != nil {
		t.Fatalf("--emp-freqs=false: freqs %v, err %v", plain.Freqs, err)
	}

	db := filepath.Join(t.TempDir(), "ref.db")
	f, err := os.Create(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(f, ref.Tree, ref.MSA, ref.Spec, ref.Freqs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Source{DB: db}.Load()
	if err != nil {
		t.Fatal(err)
	}
	if back.Spec != ref.Spec || !reflect.DeepEqual(back.Freqs, ref.Freqs) {
		t.Fatalf("db: spec %q freqs %v, want %q %v", back.Spec, back.Freqs, ref.Spec, ref.Freqs)
	}
}

// TestSourceValidate: a source must name a reference, and DB excludes every
// other field.
func TestSourceValidate(t *testing.T) {
	no := false
	for _, tc := range []struct {
		src  Source
		want string
	}{
		{Source{}, "--tree (or --db) is required"},
		{Source{Tree: "t"}, "--ref-msa (or --db) is required"},
		{Source{Tree: "t", RefMSA: "r", Type: "RNA"}, `unknown type "RNA"`},
		{Source{DB: "d", Tree: "t", Model: "JC"}, "--db cannot be combined with --tree, --model"},
		{Source{DB: "d", Type: "NT", EmpFreqs: &no}, "--db cannot be combined with --type, --emp-freqs"},
		{Source{DB: "d", Refs: func(*tree.Tree, *seq.Alphabet) ([]seq.Sequence, error) { return nil, nil }},
			"--db cannot be combined with --split"},
		{Source{DB: "d"}, ""},
		{Source{Tree: "t", RefMSA: "r", Type: "AA"}, ""},
	} {
		err := tc.src.Validate()
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: error %v, want %q", tc.src, err, tc.want)
		}
	}
}

// TestFlagsSource: only flags given on the command line reach the Source,
// so defaults never conflict with --db but explicit values — and the
// caller's own exclusive flags — do.
func TestFlagsSource(t *testing.T) {
	parse := func(args ...string) (Source, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := BindFlags(fs)
		fs.Bool("fit", false, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f.Source("fit")
	}
	src, err := parse("--db", "d")
	if err != nil || !reflect.DeepEqual(src, Source{DB: "d"}) {
		t.Fatalf("--db alone: %+v, %v", src, err)
	}
	src, err = parse("--tree", "t", "--ref-msa", "r", "--type", "AA", "--emp-freqs=false")
	if err != nil || src.Type != "AA" || src.EmpFreqs == nil || *src.EmpFreqs {
		t.Fatalf("explicit type/emp-freqs: %+v, %v", src, err)
	}
	for _, args := range [][]string{{"--db", "d", "--type", "NT"}, {"--db", "d", "--fit"}} {
		if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), "--db cannot be combined with "+args[2]) {
			t.Errorf("%v: error %v, want a --db conflict", args, err)
		}
	}
}
