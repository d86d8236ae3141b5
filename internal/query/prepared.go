package query

import (
	"slices"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/txn"
)

// Prepared is EXISTS(class WHERE pred) planned once: the access path —
// the chosen index with its pre-encoded key or interval — the verify
// predicate and the attributes it reads. A rule's Where condition is one,
// compiled at definition and probed on every firing. The plan carries the
// catalog version it was chosen under; index DDL moves the version, and
// the next probe re-plans once. Safe for concurrent use.
type Prepared struct {
	m     *Manager
	q     Q        // Class, Subclasses, Where; Limit 1
	want  []string // the attributes Where reads: a probe's slot row
	check bound    // Where bound to want
	cur   atomic.Pointer[versionedPlan]
}

// versionedPlan is an access path and the catalog version it was chosen
// under.
type versionedPlan struct {
	accessPlan
	version uint64
}

// Prepare compiles EXISTS(class WHERE pred): it chooses the access path now
// and decides which attributes a probe decodes. An unknown class is
// reported by Exists, not here: a rule may name a class defined later.
func (m *Manager) Prepare(class string, subclasses bool, pred Pred) *Prepared {
	q := Q{Class: class, Subclasses: subclasses, Where: pred, Limit: 1}
	want := referenced(q)
	p := &Prepared{m: m, q: q, want: want, check: bindPred(pred, want)}
	p.access()
	return p
}

// access returns the current plan, re-planning when index DDL has moved
// the catalog version since it was chosen. The version is read before the
// catalog, so a plan chosen across a concurrent change is stale at once
// and chosen again on the next probe.
func (p *Prepared) access() accessPlan {
	v := p.m.version.Load()
	if pl := p.cur.Load(); pl != nil && pl.version == v {
		return pl.accessPlan
	}
	pl := &versionedPlan{accessPlan: p.m.chooseAccess(p.q), version: v}
	p.cur.Store(pl)
	return pl.accessPlan
}

// Exists reports whether any object of the class satisfies the predicate
// as tx sees it. It stops at the first visible row that passes verify,
// decoding only the attributes the predicate reads into a reused slot row. A
// snapshot read takes the candidates in posting order; a locked read
// sorts them, so it takes its object locks in OID order.
func (p *Prepared) Exists(tx *txn.Txn) (bool, error) {
	m := p.m
	if err := m.openExtent(tx, p.q.Class, p.q.Subclasses); err != nil {
		return false, err
	}
	it, _ := m.iters.Get().(*oidIter)
	if it == nil {
		it = &oidIter{}
	}
	slots := it.slots
	if cap(slots) < len(p.want) {
		slots = make([]event.Slot, len(p.want))
	}
	*it = oidIter{m: m, tx: tx, want: p.want, check: p.check, slots: slots[:len(p.want)], oids: it.oids[:0], strs: it.strs}
	switch ap := leaf(tx, p.access()); ap.mode {
	case accessExtent:
		m.extentScans.Add(1)
		it.scan = m.reg.ScanExtent(tx, p.q.Class, p.q.Subclasses)
	default:
		if ap.mode == accessProbe {
			m.probes.Add(1)
		} else {
			m.rangeScans.Add(1)
		}
		it.oids = ap.candidates(it.oids)
		if tx.Snapshot() == nil {
			slices.Sort(it.oids)
		}
	}
	ok := it.Next()
	err := it.Err()
	it.Close()
	clear(it.slots) // a slot may view the scan's buffer
	it.tx, it.check, it.cur = nil, nil, Row{}
	m.iters.Put(it)
	return ok, err
}

// Explain renders the prepared plan, re-planning first if it is stale.
func (p *Prepared) Explain() string { return explain(p.access(), p.q) }

// candidates appends to oids the OIDs ap's index posts under its key or in
// its interval: a superset, each re-verified when it is loaded. Hash
// postings come in map order, copied out under hmu, which is released
// before any row is loaded.
func (ap *accessPlan) candidates(oids []uint64) []uint64 {
	if ix := ap.ix; ix.hash != nil {
		ix.hmu.RLock()
		posted := ix.hash[string(ap.eqKey)]
		oids = slices.Grow(oids, len(posted))
		for oid := range posted {
			oids = append(oids, oid)
		}
		ix.hmu.RUnlock()
		return oids
	}
	ap.ix.ord.scan(ap.lo, ap.hi, func(_ []byte, v skipVal) bool {
		oids = append(oids, v.oid)
		return true
	})
	return oids
}
