// Package sem implements the formal operational semantics of Abstract C--
// (§5 of the paper): the seven-component abstract machine state
// ⟨p, ρ, σ, uid, M, A, S⟩ and every transition rule of §5.2, including the
// uid discipline that makes invoking a dead continuation go wrong, and the
// underspecified Yield rules, which are realized by a pluggable run-time
// system operating through the C-- run-time interface of Table 1.
package sem

import (
	"fmt"

	"cmm/internal/cfg"
)

// ValueKind distinguishes the three forms of §5.1 values, plus foreign
// code (Go functions standing in for separately compiled procedures).
type ValueKind int

// Value kinds.
const (
	KBits    ValueKind = iota // Bits_n k: an n-bit value
	KCode                     // Code p: a pointer to node p (a procedure)
	KForeign                  // code implemented by the host (imports)
	KCont                     // Cont(p, u): continuation to node p in frame u

	kUnset // an unassigned local; never leaves the environment
)

var unset = Value{Kind: kUnset}

// Value is a machine value. Bits always holds the value's word
// representation: for KBits the value itself, for the other kinds a
// unique handle, so that values of any kind can be stored to memory and
// compared; the machine maps handles back to their rich values when one
// is called or cut to (§5.4 discusses exactly this kind of encoding).
type Value struct {
	Kind ValueKind
	Bits uint64
	Node *cfg.Node // KCode: the procedure's Entry; KCont: the continuation's CopyIn
	Name string    // KCode/KForeign: the procedure name (for diagnostics)
	UID  int       // KCont: the activation's unique id
}

// Word makes a plain bits value.
func Word(v uint64) Value { return Value{Kind: KBits, Bits: v} }

func (v Value) String() string {
	switch v.Kind {
	case KBits:
		return fmt.Sprintf("%d", v.Bits)
	case KCode:
		return fmt.Sprintf("Code(%s)", v.Name)
	case KForeign:
		return fmt.Sprintf("Foreign(%s)", v.Name)
	case KCont:
		return fmt.Sprintf("Cont(n%d,u%d)", v.Node.ID, v.UID)
	}
	return "?"
}

// Wrong is the error reported when the abstract machine "goes wrong":
// it reaches a state in which no transition is possible other than
// normal termination.
type Wrong struct {
	Msg  string
	Node *cfg.Node // the control at the point of going wrong, if any
}

func (w *Wrong) Error() string {
	if w.Node != nil {
		return fmt.Sprintf("program went wrong at %s node n%d: %s", w.Node.Kind, w.Node.ID, w.Msg)
	}
	return "program went wrong: " + w.Msg
}

// Frame is one element of the abstract machine stack S: a continuation
// bundle, the suspended activation's local environment, its callee-saves
// variable set, and its unique id (§5). Env and Saved are laid out as
// the machine's own (see Machine.env).
type Frame struct {
	Bundle *cfg.Bundle
	Env    []Value
	Saved  []bool
	UID    int
	Graph  *cfg.Graph // the suspended procedure (for diagnostics and var types)
	Site   *cfg.Node  // the suspended Call node
}

// ForeignFunc implements an imported procedure in Go. It receives the
// machine (for memory access) and the value-passing area's contents, and
// returns the results to place there. Returning a non-nil error makes
// the machine go wrong.
type ForeignFunc func(m *Machine, args []Value) ([]Value, error)

// RuntimeSystem is the front-end run-time system: it is entered whenever
// the machine executes the Yield node and must arrange resumption through
// the Table 1 interface before returning. Returning an error, or
// returning without arranging a legal resumption, makes the machine go
// wrong.
type RuntimeSystem interface {
	Yield(m *Machine, args []Value) error
}

// RuntimeFunc adapts a function to the RuntimeSystem interface.
type RuntimeFunc func(m *Machine, args []Value) error

// Yield implements RuntimeSystem.
func (f RuntimeFunc) Yield(m *Machine, args []Value) error { return f(m, args) }
