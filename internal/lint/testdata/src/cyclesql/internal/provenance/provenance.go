// Package provenance stubs tracked provenance for the released fixtures.
package provenance

import "cyclesql/internal/sqleval"

type Part struct{ Table *sqleval.Relation }

type Provenance struct{ Parts []Part }

func (p *Provenance) Release() {}

func Track(q string) *Provenance { return &Provenance{} }
