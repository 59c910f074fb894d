package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeCatalog writes a catalog file with the given JSON body into a fresh
// directory and returns its path.
func writeCatalog(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCatalogRejectsDBBesideReferenceFields: a row naming a refdb file
// carries its own tree, alignment and model, so any other reference field
// beside db fails the catalog at load time instead of being ignored when the
// tree is first served.
func TestCatalogRejectsDBBesideReferenceFields(t *testing.T) {
	for field, row := range map[string]string{
		"--tree":      `{"id": "x", "db": "x.phydb", "tree": "x.nwk"}`,
		"--ref-msa":   `{"id": "x", "db": "x.phydb", "ref_msa": "x.fasta"}`,
		"--model":     `{"id": "x", "db": "x.phydb", "model": "GTR+G4"}`,
		"--type":      `{"id": "x", "db": "x.phydb", "type": "AA"}`,
		"--emp-freqs": `{"id": "x", "db": "x.phydb", "emp_freqs": false}`,
	} {
		_, err := loadCatalogFile(writeCatalog(t, `{"trees": [`+row+`]}`), 0)
		if err == nil || !strings.Contains(err.Error(), "--db cannot be combined with "+field) {
			t.Errorf("row %s: error %v, want a db conflict naming %s", row, err, field)
		}
	}
}

// TestCatalogRows: a complete row loads lazily; a row without a reference,
// or with an unknown data type, fails the catalog.
func TestCatalogRows(t *testing.T) {
	cat, err := loadCatalogFile(writeCatalog(t, `{"trees": [
		{"id": "a", "tree": "a.nwk", "ref_msa": "a.fasta", "maxmem": "4M"},
		{"id": "b", "db": "b.phydb"}]}`), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(cat.order, ","); got != "a,b" {
		t.Fatalf("catalog order %s, want a,b", got)
	}
	if a, b := cat.get("a"), cat.get("b"); a.maxMem != 4<<20 || b.maxMem != 1<<20 {
		t.Fatalf("maxmem a=%d b=%d, want the row's 4M and the 1M default", a.maxMem, b.maxMem)
	}
	for _, row := range []string{
		`{"id": "x", "tree": "x.nwk"}`,
		`{"id": "x", "ref_msa": "x.fasta"}`,
		`{"id": "x", "tree": "x.nwk", "ref_msa": "x.fasta", "type": "RNA"}`,
	} {
		if _, err := loadCatalogFile(writeCatalog(t, `{"trees": [`+row+`]}`), 0); err == nil {
			t.Errorf("row %s accepted", row)
		}
	}
}
