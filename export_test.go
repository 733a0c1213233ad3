package cmm

// SetMaxInstrs replaces the machine's divergence backstop of 200M
// instructions per Run, so a test can run a diverging program to its
// budget trap in milliseconds.
func (mc *Machine) SetMaxInstrs(n int64) { mc.inst.M.MaxInstrs = n }
