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

// Value is a machine value: 16 bytes and no pointers, so environments
// and the value-passing area cost the garbage collector nothing to scan.
// Bits always holds the value's word representation: for KBits the value
// itself, for the other kinds a unique handle, so that values of any kind
// can be stored to memory and compared; the machine maps a handle back
// to its rich view (procedure, continuation node, activation uid) when
// one is called or cut to (§5.4 discusses exactly this kind of encoding).
type Value struct {
	Kind ValueKind
	Bits uint64
}

// Word makes a plain bits value.
func Word(v uint64) Value { return Value{Kind: KBits, Bits: v} }

func (v Value) String() string {
	switch v.Kind {
	case KBits:
		return fmt.Sprintf("%d", v.Bits)
	case KCode:
		return fmt.Sprintf("Code(%#x)", v.Bits)
	case KForeign:
		return fmt.Sprintf("Foreign(%#x)", v.Bits)
	case KCont:
		return fmt.Sprintf("Cont(%#x)", v.Bits)
	}
	return "?"
}

// staleUID marks a continuation handle made by an earlier run: the
// handle is known to be a continuation, but its activation and node are
// no longer recorded. No activation has this uid, so cutting to it goes
// wrong as a dead continuation.
const staleUID = -1

// rich is what a handle word denotes, as valueOfWord recovers it.
type rich struct {
	Value
	node  *cfg.Node  // KCode: the procedure's Entry; KCont: the continuation's CopyIn (nil when stale)
	graph *cfg.Graph // KCode: the procedure
	name  string     // KCode/KForeign: the procedure name (for diagnostics)
	uid   int        // KCont: the activation's unique id (0 for a label, staleUID when unknown)
}

func (v rich) String() string {
	switch v.Kind {
	case KCode:
		return fmt.Sprintf("Code(%s)", v.name)
	case KForeign:
		return fmt.Sprintf("Foreign(%s)", v.name)
	case KCont:
		if v.node == nil {
			return "Cont(dead)"
		}
		return fmt.Sprintf("Cont(n%d,u%d)", v.node.ID, v.uid)
	}
	return v.Value.String()
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
// the machine's own (see Machine.env), and are the frame buffers of the
// frame's depth.
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
// the machine go wrong. args is the machine's own buffer: it is valid
// only until the function returns.
type ForeignFunc func(m *Machine, args []Value) ([]Value, error)

// RuntimeSystem is the front-end run-time system: it is entered whenever
// the machine executes the Yield node and must arrange resumption through
// the Table 1 interface before returning. Returning an error, or
// returning without arranging a legal resumption, makes the machine go
// wrong. As for ForeignFunc, args is valid only until Yield returns.
type RuntimeSystem interface {
	Yield(m *Machine, args []Value) error
}

// RuntimeFunc adapts a function to the RuntimeSystem interface.
type RuntimeFunc func(m *Machine, args []Value) error

// Yield implements RuntimeSystem.
func (f RuntimeFunc) Yield(m *Machine, args []Value) error { return f(m, args) }
