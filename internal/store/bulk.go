package store

// Result is one BulkGet resolution, mirroring Get's three return values:
// the payload when present and valid, Present reporting whether a record
// existed for the fingerprint, and Err carrying ErrCorrupt/ErrMismatch for
// present-but-unreplayable records. Payload is read-only, as Get's is.
type Result struct {
	Payload []byte
	Present bool
	Err     error
}

// BulkGet resolves a whole set of fingerprints, each exactly as Get
// does: one read of its record file. Results are positionally aligned
// with fps, and each key's failure is in its Result, so the error is
// always nil.
func (s *Store) BulkGet(fps []Fingerprint) ([]Result, error) {
	cells := make([]Cell, len(fps))
	for i, fp := range fps {
		cells[i] = NewCell(fp)
	}
	return s.BulkGetCells(cells), nil
}

// BulkGetCells is BulkGet for fingerprints already rendered as Cells.
func (s *Store) BulkGetCells(cells []Cell) []Result {
	out := make([]Result, len(cells))
	for i := range cells {
		r := &out[i]
		r.Payload, r.Present, r.Err = s.get(cells[i])
	}
	return out
}
