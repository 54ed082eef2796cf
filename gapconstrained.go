package repro

import (
	"repro/internal/gapped"
	"repro/internal/seq"
)

// SupportWithGaps computes the gap-constrained repetitive support of one
// pattern. Unknown event names yield support 0.
func (d *Database) SupportWithGaps(pattern []string, minGap, maxGap int) (int, error) {
	db := d.Snapshot().s.DB()
	ids := make([]seq.EventID, len(pattern))
	for i, n := range pattern {
		id := db.Dict.Lookup(n)
		if id == seq.NoEvent {
			return 0, nil
		}
		ids[i] = id
	}
	return gapped.Support(db, ids, minGap, maxGap)
}
