package object

import (
	"repro/internal/event"
	"repro/internal/storage"
)

// RIDOf returns the directory's location of oid (tests outside the
// package use it to tell a relocating update).
func (r *Registry) RIDOf(oid event.OID) (storage.RID, bool) {
	ref, ok := r.lookupRef(oid)
	return ref.rid, ok
}
