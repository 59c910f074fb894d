package refdb

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phylomem/internal/mlfit"
	"phylomem/internal/model"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// Source names where a reference comes from: a refdb file (DB), or a tree,
// a reference alignment and a model spec. Empty fields and a nil EmpFreqs
// mean "not given", so Validate can tell a default from an explicit value:
// a database carries its own tree, alignment and model, and DB excludes
// every other field.
type Source struct {
	DB     string // refdb file
	Tree   string // Newick file
	RefMSA string // FASTA reference alignment
	Model  string // model.ParseSpec syntax; empty = GTR+G4 for NT, SYNAA+G4 for AA
	Type   string // "NT" or "AA"; empty = NT
	// EmpFreqs selects empirical stationary frequencies from the reference
	// alignment; nil = true.
	EmpFreqs *bool
	// Refs, when non-nil, supplies the reference sequences in place of
	// RefMSA, given the parsed tree and alphabet. It is epang's --split step,
	// and errors name it so.
	Refs func(*tree.Tree, *seq.Alphabet) ([]seq.Sequence, error)
}

// Validate reports a usage error for a source that names no reference, a
// data type other than NT or AA, or a DB beside any other field — which
// Load would otherwise ignore.
func (s Source) Validate() error {
	if s.DB != "" {
		return dbConflict(s.besideDB())
	}
	if s.Tree == "" {
		return fmt.Errorf("--tree (or --db) is required")
	}
	if s.RefMSA == "" && s.Refs == nil {
		return fmt.Errorf("--ref-msa (or --db) is required")
	}
	if s.Type != "" && s.Type != "NT" && s.Type != "AA" {
		return fmt.Errorf("unknown type %q (want NT or AA)", s.Type)
	}
	return nil
}

// besideDB names, as flags, the fields given besides DB.
func (s Source) besideDB() []string {
	var given []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"--tree", s.Tree != ""},
		{"--ref-msa", s.RefMSA != ""},
		{"--split", s.Refs != nil},
		{"--model", s.Model != ""},
		{"--type", s.Type != ""},
		{"--emp-freqs", s.EmpFreqs != nil},
	} {
		if f.set {
			given = append(given, f.name)
		}
	}
	return given
}

// dbConflict is the usage error for flags given beside --db; nil when none
// were.
func dbConflict(given []string) error {
	if len(given) == 0 {
		return nil
	}
	return fmt.Errorf("--db cannot be combined with %s: the database carries its own tree, alignment and model",
		strings.Join(given, ", "))
}

// Load validates the source and resolves it into a ready-to-place
// reference: the database's contents, or the parsed tree, the reference
// alignment and the model spec evaluated with (by default empirical)
// stationary frequencies.
func (s Source) Load() (*Reference, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.DB != "" {
		f, err := os.Open(s.DB)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Load(f)
	}
	tdata, err := os.ReadFile(s.Tree)
	if err != nil {
		return nil, err
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(string(tdata)))
	if err != nil {
		return nil, err
	}
	alphabet, spec := seq.DNA, "GTR+G4"
	if s.Type == "AA" {
		alphabet, spec = seq.AA, "SYNAA+G4"
	}
	if s.Model != "" {
		spec = s.Model
	}
	var refSeqs []seq.Sequence
	if s.Refs != nil {
		refSeqs, err = s.Refs(tr, alphabet)
	} else {
		refSeqs, err = readFasta(s.RefMSA)
	}
	if err != nil {
		return nil, err
	}
	msa, err := seq.NewMSA(alphabet, refSeqs)
	if err != nil {
		return nil, err
	}
	var freqs []float64
	if s.EmpFreqs == nil || *s.EmpFreqs {
		if freqs, err = mlfit.EmpiricalFreqs(msa); err != nil {
			return nil, err
		}
	}
	m, rates, err := model.ParseSpec(spec, freqs)
	if err != nil {
		return nil, err
	}
	return &Reference{Tree: tr, MSA: msa, Alphabet: alphabet, Model: m, Rates: rates, Spec: spec, Freqs: freqs}, nil
}

// readFasta reads every sequence of a FASTA file.
func readFasta(path string) ([]seq.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return seq.ReadFasta(f)
}

// Flags is the reference-flag surface epang and placed share: --db, or
// --tree/--ref-msa/--model/--type/--emp-freqs.
type Flags struct {
	fs       *flag.FlagSet
	src      Source
	dataType string
	empFreqs bool
}

// BindFlags declares the reference flags on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.src.DB, "db", "", "load the reference (tree+alignment+model) from a refdb file instead of --tree/--ref-msa/--model")
	fs.StringVar(&f.src.Tree, "tree", "", "reference tree (Newick)")
	fs.StringVar(&f.src.RefMSA, "ref-msa", "", "reference alignment (FASTA)")
	fs.StringVar(&f.src.Model, "model", "", "substitution model spec, e.g. GTR+G4{0.5} (default: GTR+G4 for NT, SYNAA+G4 for AA)")
	fs.StringVar(&f.dataType, "type", "NT", "data type: NT or AA")
	fs.BoolVar(&f.empFreqs, "emp-freqs", true, "use empirical stationary frequencies from the reference alignment")
	return f
}

// Source returns the parsed reference source. --type and --emp-freqs are
// set on it only when given on the command line, so Validate rejects them
// beside --db. exclusive names the caller's own flags that --db also
// excludes; giving any of them with --db is a usage error.
func (f *Flags) Source(exclusive ...string) (Source, error) {
	src := f.src
	var given []string
	f.fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "type":
			src.Type = f.dataType
		case "emp-freqs":
			v := f.empFreqs
			src.EmpFreqs = &v
		}
		for _, name := range exclusive {
			if fl.Name == name {
				given = append(given, "--"+name)
			}
		}
	})
	if src.DB != "" {
		if err := dbConflict(append(src.besideDB(), given...)); err != nil {
			return Source{}, err
		}
	}
	return src, nil
}
