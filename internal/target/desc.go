package target

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/mdgen"
	"ggcg/internal/tablegen"
)

// Description is the static half of a backend (§3): its generic machine
// description and what the system derives from it — the type-replicated
// grammar, the instruction-selection tables and their content hash — each
// built once per process on first use. A backend embeds one to provide
// Machine's Grammar, GenericStats, Tables and TableID. Everything it
// returns is immutable once built and shared read-only by every
// concurrent compilation.
type Description struct {
	name    string
	generic string

	grammar func() (*cgram.Grammar, error)
	tables  func() (*tablegen.Tables, error)
	tableID func() (string, error)
}

// NewDescription returns the lazily built description of the named
// machine from its generic (pre-replication) description text.
func NewDescription(name, generic string) *Description {
	d := &Description{name: name, generic: generic}
	d.grammar = sync.OnceValues(d.buildGrammar)
	d.tables = sync.OnceValues(d.buildTables)
	d.tableID = sync.OnceValues(d.hashTables)
	return d
}

// Grammar returns the type-replicated machine description, parsed and
// validated.
func (d *Description) Grammar() (*cgram.Grammar, error) { return d.grammar() }

// Tables returns the instruction-selection tables.
func (d *Description) Tables() (*tablegen.Tables, error) { return d.tables() }

// TableID returns a hex content hash identifying the tables: the SHA-256
// of their wire encoding (grammar text, packed action/goto combs,
// conflicts, semantic blocks, build stats) plus the encoding version, so
// any change to the description or the table constructor changes it.
func (d *Description) TableID() (string, error) { return d.tableID() }

// GenericStats sizes the generic (pre-replication) description — the
// "458 productions" row of the paper's §8 statistics table, and the
// retargeting-effort number it compares across machines.
func (d *Description) GenericStats() (cgram.Stats, error) {
	g, err := cgram.Parse(mdgen.Generic(d.generic))
	if err != nil {
		return cgram.Stats{}, err
	}
	return g.Stats(), nil
}

func (d *Description) buildGrammar() (*cgram.Grammar, error) {
	expanded, err := mdgen.Expand(d.generic)
	if err != nil {
		return nil, err
	}
	g, err := cgram.Parse(expanded)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(ir.TermArity); err != nil {
		return nil, fmt.Errorf("%s: %v", d.name, err)
	}
	return g, nil
}

func (d *Description) buildTables() (*tablegen.Tables, error) {
	g, err := d.Grammar()
	if err != nil {
		return nil, err
	}
	return tablegen.Build(g, tablegen.Options{})
}

func (d *Description) hashTables() (string, error) {
	t, err := d.Tables()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "encoding=%d\n", tablegen.EncodingVersion)
	if err := t.Encode(h); err != nil {
		return "", fmt.Errorf("%s: hashing tables: %v", d.name, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
