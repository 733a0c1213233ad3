package minim3

import (
	"fmt"

	"cmm/internal/dispatch"
	"cmm/internal/machine"
	"cmm/internal/pipeline"
	"cmm/internal/rts"
	"cmm/internal/sem"
	"cmm/internal/vm"
)

// Backend selects how a compiled MiniM3 program executes.
type Backend int

// Backends.
const (
	BackendSem Backend = iota // the abstract machine of the semantics
	BackendVM                 // compiled code on the simulated machine
)

// Runner compiles and executes a MiniM3 program under one policy and
// backend, installing the dispatcher the policy requires.
type Runner struct {
	Policy  Policy
	Backend Backend
	CmmSrc  string // the generated C-- source, for inspection
	// Session is the pipeline that compiled the program: per-pass wall
	// time (front-end m3-* stages included), diagnostics, and snapshots.
	Session *pipeline.Session

	semM *sem.Machine
	inst *vm.Instance
}

// DispatcherFor returns the front-end run-time system each policy needs
// (its exception stack is the global the cutting emitter declares).
// PolicyNativeUnwind needs none: its dispatch is entirely generated code.
func DispatcherFor(policy Policy) func(rts.Thread, []uint64) error {
	switch policy {
	case PolicyCutting:
		d := &dispatch.ExnStackDispatcher{ExnTopGlobal: "mm_exn_top"}
		return d.Dispatch
	case PolicyUnwinding:
		d := &dispatch.UnwindDispatcher{}
		return d.Dispatch
	}
	return nil
}

// NewRunner compiles src under policy and loads it on the backend.
func NewRunner(src string, policy Policy, backend Backend) (*Runner, error) {
	return NewRunnerWith(src, policy, backend, CompileOptions{})
}

// NewRunnerWith is NewRunner with front-end options. Compilation runs
// through a pipeline session: the m3-* front-end stages and the C--
// back-end passes all land in Session.Stats, retrievable via
// Runner.Session.
func NewRunnerWith(src string, policy Policy, backend Backend, copts CompileOptions) (*Runner, error) {
	sess, err := NewSession(src, policy, copts, pipeline.Config{})
	if err != nil {
		return nil, err
	}
	r := &Runner{Policy: policy, Backend: backend, Session: sess}
	if err := sess.Frontend(); err != nil {
		return nil, fmt.Errorf("generated C-- does not compile: %w", err)
	}
	r.CmmSrc = sess.Source()
	prog := sess.Program()
	d := DispatcherFor(policy)
	switch backend {
	case BackendSem:
		opts := []sem.Option{sem.WithMaxSteps(50_000_000)}
		if d != nil {
			opts = append(opts, sem.WithRuntime(sem.RuntimeFunc(
				func(m *sem.Machine, vals []sem.Value) error {
					args := make([]uint64, len(vals))
					for i, v := range vals {
						args[i] = v.Bits
					}
					return d(rts.SemThread{M: m}, args)
				})))
		}
		m, err := sem.New(prog, opts...)
		if err != nil {
			return nil, err
		}
		r.semM = m
	case BackendVM:
		cp, err := sess.Codegen()
		if err != nil {
			return nil, fmt.Errorf("generated C-- does not compile: %w\n%s", err, r.CmmSrc)
		}
		var opts []vm.Option
		if d != nil {
			opts = append(opts, vm.WithRuntime(vm.RuntimeFunc(
				func(t *vm.Thread, args []uint64) error {
					return d(rts.VMThread{T: t}, args)
				})))
		}
		inst, err := vm.NewInstance(cp, opts...)
		if err != nil {
			return nil, err
		}
		r.inst = inst
	default:
		return nil, fmt.Errorf("unknown backend %d", backend)
	}
	return r, nil
}

// Call invokes procedure proc with integer arguments. It returns status
// 0 and the result on a normal return, or the escaped exception's tag
// and argument.
func (r *Runner) Call(proc string, args ...uint64) (status, value uint64, err error) {
	wrapper := "run_" + proc
	if r.semM != nil {
		vs, err := r.semM.Run(wrapper, args...)
		if err != nil {
			return 0, 0, err
		}
		if len(vs) != 2 {
			return 0, 0, fmt.Errorf("wrapper returned %d values", len(vs))
		}
		return vs[0].Bits, vs[1].Bits, nil
	}
	res, err := r.inst.Run(wrapper, args...)
	if err != nil {
		return 0, 0, err
	}
	return res[0], res[1], nil
}

// SetEngine selects the simulated machine's execution loop (BackendVM
// only; the default is the native closure-chain engine).
func (r *Runner) SetEngine(e machine.Engine) {
	if r.inst != nil {
		r.inst.M.Engine = e
	}
}

// Stats reports the simulated machine's counters (BackendVM only).
func (r *Runner) Stats() machine.Counters {
	if r.inst != nil {
		return r.inst.Stats()
	}
	return machine.Counters{}
}

// ResetStats zeroes the counters (BackendVM only).
func (r *Runner) ResetStats() {
	if r.inst != nil {
		r.inst.ResetStats()
	}
}

// Policies lists all compiler policies, for tests and benchmarks.
var Policies = []Policy{PolicyCutting, PolicyUnwinding, PolicyNativeUnwind}
