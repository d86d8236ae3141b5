package lockmgr

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// heldMismatch compares the per-owner held lists with the holders maps
// they index and describes the first difference ("" when they agree):
// every owner's list must name exactly the resources whose holders map
// has the owner, each once.
func (m *Manager) heldMismatch() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	want := map[TxnID][]string{}
	for name, rl := range m.resources {
		if rl.name != name {
			return fmt.Sprintf("resource %q carries the name %q", name, rl.name)
		}
		for owner := range rl.holders {
			want[owner] = append(want[owner], name)
		}
	}
	for owner, list := range m.held {
		if len(list) == 0 {
			return fmt.Sprintf("owner %d keeps an empty held list", owner)
		}
		got := make([]string, len(list))
		for i, rl := range list {
			if m.resources[rl.name] != rl {
				return fmt.Sprintf("owner %d lists %q, which is not in the table", owner, rl.name)
			}
			got[i] = rl.name
		}
		sort.Strings(got)
		sort.Strings(want[owner])
		if fmt.Sprint(got) != fmt.Sprint(want[owner]) {
			return fmt.Sprintf("owner %d lists %v, holds %v", owner, got, want[owner])
		}
		delete(want, owner)
	}
	for owner, names := range want {
		return fmt.Sprintf("owner %d holds %v but has no held list", owner, names)
	}
	return ""
}

// TestQuickHeldListsMatchHolders drives random Lock/LockTimeout (with
// timeouts and deadlock victims), Unlock, SetParent, Inherit, ReleaseAll
// and Forget from concurrent transaction families while a checker samples
// the invariant: the held lists are exactly the index of the holders maps,
// and once every family has finished none is left.
func TestQuickHeldListsMatchHolders(t *testing.T) {
	resources := []string{"r0", "r1", "r2", "r3", "r4"}
	f := func(seed []uint8) bool {
		m := New()
		var bad atomic.Pointer[string]
		report := func() {
			if s := m.heldMismatch(); s != "" {
				bad.CompareAndSwap(nil, &s)
			}
		}
		stop := make(chan struct{})
		var checker sync.WaitGroup
		checker.Add(1)
		go func() {
			defer checker.Done()
			for {
				select {
				case <-stop:
					return
				default:
					report()
				}
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				root := TxnID(g + 1)
				var child TxnID // the family's open subtransaction, 0 for none
				nextChild := TxnID(100 * (g + 1))
				for i := g; i < len(seed); i += 4 {
					b := seed[i]
					r := resources[int(b>>3)%len(resources)]
					owner := root
					if child != 0 && b&4 != 0 {
						owner = child
					}
					mode := Mode(b & 1)
					switch op := b >> 5; {
					case op <= 2:
						_ = m.LockTimeout(owner, r, mode, time.Duration(1+b&3)*time.Millisecond)
					case op == 3:
						_ = m.Unlock(owner, r)
					case op == 4 && child == 0:
						nextChild++
						child = nextChild
						m.SetParent(child, root)
					case op == 5 && child != 0:
						m.Inherit(child, root)
						child = 0
					case op == 6 && child != 0:
						m.ReleaseAll(child)
						child = 0
					case op == 7:
						m.Forget(nextChild) // a finished child: already forgotten
					}
				}
				if child != 0 {
					m.Inherit(child, root)
				}
				m.ReleaseAll(root)
			}(g)
		}
		wg.Wait()
		close(stop)
		checker.Wait()
		report()
		if s := bad.Load(); s != nil {
			t.Log(*s)
			return false
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if len(m.held) != 0 {
			t.Logf("held lists left after every family finished: %v", m.held)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLockmgr_SubCommit: a rule subtransaction that locked nothing
// commits into its parent (SetParent + Inherit) while other transactions
// hold tablelocks locks. It used to scan the whole table.
func BenchmarkLockmgr_SubCommit(b *testing.B) {
	for _, n := range []int{16, 4096} {
		b.Run(fmt.Sprintf("tablelocks=%d", n), func(b *testing.B) {
			m := New()
			for i := 0; i < n; i++ {
				if err := m.Lock(TxnID(1000+i%8), fmt.Sprintf("obj-%d", i), Exclusive); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				child := TxnID(1_000_000 + i)
				m.SetParent(child, 1)
				m.Inherit(child, 1)
			}
		})
	}
}
