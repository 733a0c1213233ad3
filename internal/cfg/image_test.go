package cfg

import (
	"encoding/binary"
	"testing"

	"cmm/internal/syntax"
)

func buildImage(t *testing.T, src string, resolve func(*syntax.VarExpr) (uint64, bool)) *Image {
	t.Helper()
	p := build(t, src)
	img, err := BuildImage(p, resolve)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestImageLayoutBasics(t *testing.T) {
	img := buildImage(t, `
section "data" {
    a: bits32 1, 2, 3;
    s: "hi";
    b: bits16 7;
    r: bits8[5];
}
f() { return (); }
`, nil)
	if img.Base != ImageBase {
		t.Errorf("base: %#x", img.Base)
	}
	// a at base (aligned), 12 bytes.
	if img.Labels["a"] != ImageBase {
		t.Errorf("a at %#x", img.Labels["a"])
	}
	// s follows immediately (byte alignment).
	if img.Labels["s"] != ImageBase+12 {
		t.Errorf("s at %#x", img.Labels["s"])
	}
	// b is 2-aligned after "hi\0" (3 bytes): base+15 -> base+16.
	if img.Labels["b"] != ImageBase+16 {
		t.Errorf("b at %#x", img.Labels["b"])
	}
	if img.Labels["r"] != ImageBase+18 {
		t.Errorf("r at %#x", img.Labels["r"])
	}
	// Contents.
	off := img.Labels["a"] - img.Base
	if got := binary.LittleEndian.Uint32(img.Bytes[off+4:]); got != 2 {
		t.Errorf("a[1] = %d", got)
	}
	soff := img.Labels["s"] - img.Base
	if string(img.Bytes[soff:soff+3]) != "hi\x00" {
		t.Errorf("string bytes: %q", img.Bytes[soff:soff+3])
	}
}

func TestImageInternsCodeStrings(t *testing.T) {
	img := buildImage(t, `
f(bits32 t) {
    t("alpha");
    t("beta");
    t("alpha");
    return ();
}
`, nil)
	if len(img.Strings) != 2 {
		t.Fatalf("strings: %v", img.Strings)
	}
	a, b := img.Strings["alpha"], img.Strings["beta"]
	if a == 0 || b == 0 || a == b {
		t.Fatalf("addresses: %#x %#x", a, b)
	}
	off := a - img.Base
	if string(img.Bytes[off:off+6]) != "alpha\x00" {
		t.Errorf("alpha bytes: %q", img.Bytes[off:off+6])
	}
}

func TestImageForwardReferences(t *testing.T) {
	// vec references lab, declared later; both resolve.
	img := buildImage(t, `
section "d" {
    vec: bits32 lab;
    lab: bits32 9;
}
f() { return (); }
`, nil)
	off := img.Labels["vec"] - img.Base
	if got := binary.LittleEndian.Uint32(img.Bytes[off:]); uint64(got) != img.Labels["lab"] {
		t.Errorf("vec holds %#x, want %#x", got, img.Labels["lab"])
	}
}

func TestImageResolverForProcNames(t *testing.T) {
	img := buildImage(t, `
section "d" {
    vtbl: bits32 f;
}
f() { return (); }
`, func(v *syntax.VarExpr) (uint64, bool) {
		if v.Ref == syntax.RefProc && v.Slot == 0 {
			return 0xCAFE, true
		}
		return 0, false
	})
	off := img.Labels["vtbl"] - img.Base
	if got := binary.LittleEndian.Uint32(img.Bytes[off:]); got != 0xCAFE {
		t.Errorf("vtbl holds %#x", got)
	}
}

func TestImageUnresolvedNameFails(t *testing.T) {
	p := build(t, `
import ext;
section "d" {
    vec: bits32 ext;
}
f() { return (); }
`)
	if _, err := BuildImage(p, nil); err == nil {
		t.Fatal("expected unresolved-name error")
	}
}

func TestImageLayoutStableAcrossResolvers(t *testing.T) {
	src := `
section "d" { a: bits32 f; s: "x"; }
f() { return (); }
`
	img1 := buildImage(t, src, func(*syntax.VarExpr) (uint64, bool) { return 0, true })
	img2 := buildImage(t, src, func(*syntax.VarExpr) (uint64, bool) { return 0xFFFF, true })
	if img1.Labels["a"] != img2.Labels["a"] || img1.Strings["x"] != img2.Strings["x"] {
		t.Fatal("layout depends on resolver values")
	}
	if img1.End() != img2.End() {
		t.Fatal("image size depends on resolver values")
	}
}
