package target

import (
	"fmt"
	"sync"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/mdgen"
	"ggcg/internal/tablegen"
)

// Description is the static half of a backend (§3): its generic machine
// description, the type-replicated grammar derived from it, and the
// instruction-selection tables the table constructor built from that
// grammar ahead of time and the backend ships as generated Go source
// (tables_gen.go, written by `ggtables -gen`). The grammar is expanded
// and the shipped tables are wrapped around it once per process, on
// first use. A backend embeds one to provide Machine's Grammar,
// GenericStats, Tables and TableID. Everything it returns is immutable
// and shared read-only by every concurrent compilation.
type Description struct {
	name    string
	generic string
	shipped *tablegen.Static

	grammar func() (*cgram.Grammar, error)
	tables  func() (*tablegen.Tables, error)
}

// NewDescription returns the lazily built description of the named
// machine from its generic (pre-replication) description text and the
// tables generated from it.
func NewDescription(name, generic string, shipped *tablegen.Static) *Description {
	d := &Description{name: name, generic: generic, shipped: shipped}
	d.grammar = sync.OnceValues(d.buildGrammar)
	d.tables = sync.OnceValues(d.loadTables)
	return d
}

// Grammar returns the type-replicated machine description, parsed and
// validated.
func (d *Description) Grammar() (*cgram.Grammar, error) { return d.grammar() }

// Tables returns the instruction-selection tables: the shipped packed
// tables, checked against the grammar.
func (d *Description) Tables() (*tablegen.Tables, error) { return d.tables() }

// TableID returns a hex content hash identifying the tables: the SHA-256
// of the expanded grammar text and the packed arrays, computed when the
// tables were generated. Any change to the description or the table
// constructor changes it once the tables are regenerated, and until then
// the tables fail to load.
func (d *Description) TableID() (string, error) {
	if _, err := d.Tables(); err != nil {
		return "", err
	}
	return d.shipped.ID, nil
}

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

func (d *Description) loadTables() (*tablegen.Tables, error) {
	g, err := d.Grammar()
	if err != nil {
		return nil, err
	}
	t, err := tablegen.Load(g, d.shipped)
	if err != nil {
		return nil, fmt.Errorf("%s: shipped tables do not match the description (run go generate ./internal/%s): %v",
			d.name, d.name, err)
	}
	return t, nil
}
