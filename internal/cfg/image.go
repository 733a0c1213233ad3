package cfg

import (
	"encoding/binary"
	"sort"

	"cmm/internal/syntax"
)

// Image is the static data image of a program: every data section laid
// out at concrete addresses, every string literal interned, and a label
// map. Both the abstract machine (internal/sem) and the simulated target
// machine (internal/machine) load the same image, so the two executions
// agree about addresses.
type Image struct {
	Base    uint64            // address of the first byte of data
	Bytes   []byte            // initialized data, starting at Base
	Labels  map[string]uint64 // data label -> address
	Strings map[string]uint64 // interned string -> address
}

// ImageBase is the default load address of static data.
const ImageBase = 0x1000

func imageFile(p *Program) string {
	if p.Source != nil {
		return p.Source.File
	}
	return ""
}

// BuildImage lays out the program's data sections and interned strings.
// resolve supplies values for the procedure and import references in
// data initializers, by Ref and Slot; it may be nil if none occur.
func BuildImage(p *Program, resolve func(v *syntax.VarExpr) (uint64, bool)) (*Image, error) {
	img := &Image{
		Base:    ImageBase,
		Labels:  map[string]uint64{},
		Strings: map[string]uint64{},
	}
	addr := img.Base

	emit := func(v uint64, size int) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		img.Bytes = append(img.Bytes, buf[:size]...)
		addr += uint64(size)
	}

	// First pass: assign label addresses so that forward references
	// between data items resolve.
	type pending struct {
		datum *syntax.Datum
		addr  uint64
	}
	var todo []pending
	for _, sec := range p.Data {
		for _, it := range sec.Items {
			size := uint64(4)
			if !it.IsStr {
				size = uint64(it.Type.Bytes())
			} else {
				size = 1
			}
			for addr%size != 0 {
				addr++
			}
			img.Labels[it.Label] = addr
			switch {
			case it.IsStr:
				addr += uint64(len(it.Str) + 1)
			case it.Reserve > 0:
				addr += uint64(it.Reserve * it.Type.Bytes())
			default:
				addr += uint64(len(it.Values) * it.Type.Bytes())
			}
			todo = append(todo, pending{it, img.Labels[it.Label]})
		}
	}

	// Second pass: emit bytes.
	addr = img.Base
	img.Bytes = nil
	lookup := func(v *syntax.VarExpr, pos syntax.Pos) (uint64, error) {
		if a, ok := img.Labels[v.Name]; ok {
			return a, nil
		}
		if resolve != nil && (v.Ref == syntax.RefProc || v.Ref == syntax.RefImport) {
			if a, ok := resolve(v); ok {
				return a, nil
			}
		}
		return 0, syntax.ErrorAt(PassTranslate, imageFile(p), pos, "cannot resolve name %s in data initializer", v.Name)
	}
	for _, pd := range todo {
		it := pd.datum
		for addr < pd.addr {
			img.Bytes = append(img.Bytes, 0)
			addr++
		}
		switch {
		case it.IsStr:
			img.Bytes = append(img.Bytes, []byte(it.Str)...)
			img.Bytes = append(img.Bytes, 0)
			addr += uint64(len(it.Str) + 1)
		case it.Reserve > 0:
			for i := 0; i < it.Reserve*it.Type.Bytes(); i++ {
				img.Bytes = append(img.Bytes, 0)
			}
			addr += uint64(it.Reserve * it.Type.Bytes())
		default:
			for _, v := range it.Values {
				var bits uint64
				if name, ok := v.(*syntax.VarExpr); ok {
					a, err := lookup(name, it.Pos)
					if err != nil {
						return nil, err
					}
					bits = a
				} else {
					b, err := evalConst(v, imageFile(p))
					if err != nil {
						return nil, err
					}
					bits = b
				}
				emit(bits, it.Type.Bytes())
			}
		}
	}

	// Intern every string literal appearing in code.
	var strs []string
	seen := map[string]bool{}
	for _, g := range p.Procs {
		for _, n := range g.AllNodes() {
			WalkNodeExprs(n, func(e syntax.Expr) {
				if s, ok := e.(*syntax.StrLit); ok && !seen[s.Val] {
					seen[s.Val] = true
					strs = append(strs, s.Val)
				}
			})
		}
	}
	sort.Strings(strs)
	for _, s := range strs {
		img.Strings[s] = addr
		img.Bytes = append(img.Bytes, []byte(s)...)
		img.Bytes = append(img.Bytes, 0)
		addr += uint64(len(s) + 1)
	}
	return img, nil
}

// End returns the first address past the image.
func (img *Image) End() uint64 { return img.Base + uint64(len(img.Bytes)) }

// AllNodes returns every node ever created in the graph, including nodes
// made unreachable by later rewrites. Most callers want Nodes.
func (g *Graph) AllNodes() []*Node { return g.nodes }

// WalkExpr calls f for e and every subexpression of e.
func WalkExpr(e syntax.Expr, f func(syntax.Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *syntax.MemExpr:
		WalkExpr(e.Addr, f)
	case *syntax.UnExpr:
		WalkExpr(e.X, f)
	case *syntax.BinExpr:
		WalkExpr(e.X, f)
		WalkExpr(e.Y, f)
	case *syntax.PrimExpr:
		for _, a := range e.Args {
			WalkExpr(a, f)
		}
	}
}

// WalkNodeExprs calls f for every expression appearing in n, including
// subexpressions.
func WalkNodeExprs(n *Node, f func(syntax.Expr)) {
	for _, e := range n.Exprs {
		WalkExpr(e, f)
	}
	if n.LHSMem != nil {
		WalkExpr(n.LHSMem, f)
	}
	WalkExpr(n.RHS, f)
	WalkExpr(n.Cond, f)
	WalkExpr(n.Callee, f)
	WalkExpr(n.Target, f)
	if n.Bundle != nil {
		for _, d := range n.Bundle.Descriptors {
			WalkExpr(d, f)
		}
	}
}
