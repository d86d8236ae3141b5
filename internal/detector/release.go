package detector

import "fmt"

// Node-lifetime reference counting. Every node carries a pin count
// (nodeCore.pins) of external holds: each alias name pins the node it
// addresses, and the rule manager pins the root of every event subtree a
// rule subscribes to. Releasing the last pin collects the node if nothing
// else can observe it — no rule subscriber, no operator parent — and the
// collection cascades into its children, whose parent edge just vanished.
// Declared primitive and explicit events are permanent (dropping a class's
// event interface is not a supported operation); transaction-event nodes
// are created lazily on first reference, so collecting an orphaned one is
// safe. Collection therefore only ever removes operator subtrees and
// orphaned transaction events — exactly the graphs Drop leaves behind.

// Retain pins the named event's node, keeping its subtree resident until
// a matching Release. The rule manager retains each rule's event on
// Define and releases it on Drop.
func (d *Detector) Retain(name string) error {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.retainLocked(name)
}

// retainLocked implements Retain; callers hold structMu.
func (d *Detector) retainLocked(name string) error {
	n, ok := d.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEvent, name)
	}
	n.core().pins++
	return nil
}

// Release drops one pin from the named event's node and collects every
// node of its subtree that no surviving hold can reach.
func (d *Detector) Release(name string) error {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	return d.releaseLocked(name)
}

// releaseLocked implements Release; callers hold structMu.
func (d *Detector) releaseLocked(name string) error {
	n, ok := d.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEvent, name)
	}
	core := n.core()
	if core.pins <= 0 {
		return fmt.Errorf("detector: release of unpinned event %q", name)
	}
	core.pins--
	d.collectLocked(n)
	return nil
}

// collectable reports whether nothing can observe the node any more: no
// pin (alias or rule-manager hold), no subscribed rule, no operator
// parent. Callers hold structMu.
func (c *nodeCore) collectable() bool {
	return !c.permanent && c.pins == 0 && len(c.rules) == 0 && len(c.parents) == 0
}

// collectLocked removes n if it is collectable, cascading into children
// orphaned by the removal. The whole subtree lives in one component by
// construction (attaching an operator merged its operands), so a single
// component lock covers every structural mutation. Callers hold structMu.
func (d *Detector) collectLocked(n Node) {
	if !n.core().collectable() {
		return
	}
	root := n.component()
	d.admit.Store(nil)
	root.mu.Lock()
	work := []Node{n}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		core := cur.core()
		if !core.collectable() || len(core.names) == 0 {
			continue // second visit via a duplicated operand, or still held
		}
		d.cancelTimers(cur, 0)
		cur.flushAll()
		for _, name := range core.names {
			delete(d.nodes, name)
			delete(d.nodeSig, name)
		}
		core.names = nil
		if p, ok := cur.(*PrimitiveNode); ok && p.class != "" {
			list := d.classes[p.class]
			for i, have := range list {
				if have == p {
					d.classes[p.class] = append(list[:i], list[i+1:]...)
					break
				}
			}
		}
		d.liveNodes.Add(-1)
		d.obs.nodesReleased.Add(1)
		if a, ok := cur.(*aStarNode); ok && a.shared != nil {
			d.leaveTxnWindow(a)
		}
		for _, k := range cur.Kids() {
			if k == nil {
				continue
			}
			k.core().detachParent(cur)
			work = append(work, k)
		}
	}
	root.mu.Unlock()
}
