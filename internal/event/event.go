// Package event defines the event model shared by every Sentinel module:
// primitive and composite event occurrences, parameter lists (the PARA_LIST
// of the paper), event modifiers and logical time.
//
// An occurrence is an immutable record of "something happened": a method
// began or ended on an object, a transaction reached a boundary, an
// application raised an explicit event, or the composite event detector
// recognised an operator expression. Composite occurrences carry the
// occurrences of their constituents, so the parameters of every primitive
// event that participated in a detection travel to the triggered rule
// exactly as the paper's linked parameter lists do.
package event

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Modifier distinguishes the begin-method and end-method variants of a
// primitive method event. The paper takes end-of-method as the default.
type Modifier uint8

const (
	// End signals the completion of a method invocation (the default).
	End Modifier = iota
	// Begin signals the start of a method invocation.
	Begin
)

// String returns the Snoop surface syntax for the modifier.
func (m Modifier) String() string {
	switch m {
	case Begin:
		return "begin"
	case End:
		return "end"
	default:
		return fmt.Sprintf("Modifier(%d)", uint8(m))
	}
}

// ParseModifier converts Snoop surface syntax ("begin"/"end") to a Modifier.
func ParseModifier(s string) (Modifier, error) {
	switch strings.ToLower(s) {
	case "begin":
		return Begin, nil
	case "end", "":
		return End, nil
	default:
		return End, fmt.Errorf("event: unknown modifier %q (want begin or end)", s)
	}
}

// Kind classifies an occurrence's origin.
type Kind uint8

const (
	// KindMethod is a primitive event raised by a reactive method wrapper.
	KindMethod Kind = iota
	// KindTransaction is a primitive event raised by the transaction
	// manager (beginTransaction, preCommit, commitTransaction,
	// abortTransaction). The paper makes the system transaction class
	// REACTIVE so these are ordinary primitive events.
	KindTransaction
	// KindExplicit is an application-raised (abstract) event.
	KindExplicit
	// KindTemporal is a clock-driven event used by the temporal operators.
	KindTemporal
	// KindComposite is an occurrence produced by an operator node of the
	// event graph.
	KindComposite
)

// String returns a short human-readable label for the kind.
func (k Kind) String() string {
	switch k {
	case KindMethod:
		return "method"
	case KindTransaction:
		return "transaction"
	case KindExplicit:
		return "explicit"
	case KindTemporal:
		return "temporal"
	case KindComposite:
		return "composite"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Names of the transaction system events. They mirror the methods of the
// paper's reactive system transaction class.
const (
	BeginTransaction  = "beginTransaction"
	PreCommit         = "preCommitTransaction"
	CommitTransaction = "commitTransaction"
	AbortTransaction  = "abortTransaction"
)

// OID identifies a database object. The zero OID means "no object" (for
// example transaction or temporal events).
type OID uint64

// String renders the OID in the oid:N form used by traces and the debugger.
func (o OID) String() string {
	if o == 0 {
		return "oid:none"
	}
	return fmt.Sprintf("oid:%d", uint64(o))
}

// Param is one named event parameter with an atomic value. The paper
// restricts composite-event parameters to the object identity plus
// atomic-valued method arguments; we enforce the same restriction at the
// reactive-dispatch layer.
type Param struct {
	Name  string
	Value any
}

// ParamList is the ordered parameter list attached to an occurrence — the
// analog of the paper's PARA_LIST. Lists are treated as immutable once
// attached to an occurrence: composition adjusts pointers (slice headers)
// rather than copying values, matching the paper's "only the pointers have
// to be adjusted" efficiency argument.
type ParamList []Param

// NewParams builds a ParamList from alternating name/value pairs. It panics
// if given an odd number of arguments or a non-string name, which indicates
// a programming error at the call site.
func NewParams(pairs ...any) ParamList {
	if len(pairs)%2 != 0 {
		panic("event: NewParams requires name/value pairs")
	}
	pl := make(ParamList, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("event: NewParams name %d is %T, want string", i/2, pairs[i]))
		}
		pl = append(pl, Param{Name: name, Value: pairs[i+1]})
	}
	return pl
}

// Get returns the value of the first parameter with the given name.
func (pl ParamList) Get(name string) (any, bool) {
	for _, p := range pl {
		if p.Name == name {
			return p.Value, true
		}
	}
	return nil, false
}

// Names returns the parameter names in order.
func (pl ParamList) Names() []string {
	names := make([]string, len(pl))
	for i, p := range pl {
		names[i] = p.Name
	}
	return names
}

// String renders the list as {a=1, b="x"}.
func (pl ParamList) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pl {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", p.Name, p.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Occurrence records one event occurrence. Occurrences are immutable after
// construction; the detector and rule manager share them freely across
// goroutines.
type Occurrence struct {
	// Name is the event name: the declared primitive event name, a
	// transaction event constant, or the name of the composite expression.
	Name string
	// Kind classifies the origin of the occurrence.
	Kind Kind
	// Class and Method identify the generating method for KindMethod.
	Class  string
	Method string
	// Modifier is Begin or End for KindMethod.
	Modifier Modifier
	// Object is the receiver's OID for KindMethod (zero otherwise).
	Object OID
	// Params carries the collected parameters.
	Params ParamList
	// Seq is the detector-assigned logical timestamp. Within one local
	// event detector it is strictly increasing; composite occurrences
	// take the Seq of their terminating constituent, as Snoop's interval
	// semantics dictate.
	Seq uint64
	// Time is the detector's (virtual) clock reading when the occurrence
	// was signalled; the temporal operators (P, P*, PLUS) work in these
	// units.
	Time uint64
	// Txn is the (top-level) transaction in which the occurrence arose;
	// zero when outside any transaction.
	Txn uint64
	// App names the application (client) that raised the occurrence; used
	// by the global event detector.
	App string
	// Constituents lists, for composite occurrences, the occurrences that
	// were grouped to detect this one, in operator order.
	Constituents []*Occurrence
}

// IsComposite reports whether the occurrence was produced by an operator
// node rather than signaled as a primitive event.
func (o *Occurrence) IsComposite() bool { return o.Kind == KindComposite }

// Initiator returns the occurrence that opened this occurrence's interval:
// the occurrence itself for primitives, or the recursively resolved first
// constituent for composites.
func (o *Occurrence) Initiator() *Occurrence {
	if len(o.Constituents) == 0 {
		return o
	}
	return o.Constituents[0].Initiator()
}

// Terminator returns the occurrence that closed this occurrence's interval:
// the occurrence itself for primitives, or the recursively resolved last
// constituent for composites.
func (o *Occurrence) Terminator() *Occurrence {
	if len(o.Constituents) == 0 {
		return o
	}
	return o.Constituents[len(o.Constituents)-1].Terminator()
}

// StartSeq returns the logical timestamp at which the occurrence's interval
// opened. For primitive occurrences this equals Seq.
func (o *Occurrence) StartSeq() uint64 { return o.Initiator().Seq }

// Leaves appends, in detection order, every primitive occurrence that
// participated in this occurrence, flattening nested composites. This is
// the parameter linked-list handed to a rule's condition and action.
func (o *Occurrence) Leaves() []*Occurrence {
	var out []*Occurrence
	o.appendLeaves(&out)
	return out
}

func (o *Occurrence) appendLeaves(out *[]*Occurrence) {
	if len(o.Constituents) == 0 {
		*out = append(*out, o)
		return
	}
	for _, c := range o.Constituents {
		c.appendLeaves(out)
	}
}

// AllParams returns the concatenated parameter lists of every constituent
// primitive occurrence, in detection order. Only slice headers are copied,
// never parameter values (the paper's pointer-adjustment argument).
func (o *Occurrence) AllParams() []ParamList {
	leaves := o.Leaves()
	lists := make([]ParamList, len(leaves))
	for i, l := range leaves {
		lists[i] = l.Params
	}
	return lists
}

// String renders the occurrence compactly for traces and test failures.
func (o *Occurrence) String() string {
	if o == nil {
		return "<nil occurrence>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d", o.Name, o.Seq)
	if o.Kind == KindMethod {
		fmt.Fprintf(&b, "[%s %s.%s %s]", o.Modifier, o.Class, o.Method, o.Object)
	}
	if len(o.Params) > 0 {
		b.WriteString(o.Params.String())
	}
	if len(o.Constituents) > 0 {
		b.WriteByte('(')
		for i, c := range o.Constituents {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(c.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Signature returns the class/method/modifier key a primitive event node
// matches against, e.g. "begin STOCK.set_price".
func Signature(class, method string, mod Modifier) string {
	return mod.String() + " " + class + "." + method
}

// Clock issues the strictly increasing logical timestamps a local event
// detector stamps on occurrences. The zero value is ready to use. Clock is
// safe for concurrent use.
type Clock struct {
	seq atomic.Uint64
}

// Next returns the next logical timestamp.
func (c *Clock) Next() uint64 { return c.seq.Add(1) }

// Now returns the most recently issued timestamp without advancing.
func (c *Clock) Now() uint64 { return c.seq.Load() }

// Advance moves the clock forward to at least seq, for replaying stored
// event logs whose occurrences carry their original timestamps.
func (c *Clock) Advance(seq uint64) {
	for {
		cur := c.seq.Load()
		if cur >= seq || c.seq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// SortBySeq orders occurrences by logical timestamp (stable for equal Seq).
func SortBySeq(occs []*Occurrence) {
	slices.SortStableFunc(occs, func(a, b *Occurrence) int { return cmp.Compare(a.Seq, b.Seq) })
}
