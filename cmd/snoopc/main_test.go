package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSpec writes src to a temp spec file and runs snoopc over it.
func runSpec(t *testing.T, src string, extraArgs ...string) (code int, stdout, stderr string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.snp")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code = run(append(extraArgs, path), &out, &errb)
	return code, out.String(), errb.String()
}

func TestGoldenCompile(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{filepath.Join("testdata", "bulk.snp")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	goldenPath := filepath.Join("testdata", "bulk.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

func TestUnresolvableInstanceName(t *testing.T) {
	src := `
class STOCK reactive { event end(priced) set_price(price); }
event ibm = end STOCK("IBM").set_price(price);
`
	// Without -instances every name is auto-interned: must compile.
	if code, _, stderr := runSpec(t, src); code != 0 {
		t.Fatalf("auto-interned instance failed: %s", stderr)
	}
	// With an explicit binding table, unlisted names are errors.
	code, _, stderr := runSpec(t, src, "-instances", "DEC=7")
	if code != 1 || !strings.Contains(stderr, `"IBM"`) {
		t.Fatalf("unresolvable instance: exit=%d stderr=%q", code, stderr)
	}
	// And listed ones resolve.
	if code, _, stderr := runSpec(t, src, "-instances", "IBM=42"); code != 0 {
		t.Fatalf("bound instance failed: %s", stderr)
	}
	// Malformed binding tables are usage errors.
	if code, _, _ := runSpec(t, src, "-instances", "IBM"); code != 2 {
		t.Fatalf("malformed -instances accepted: exit=%d", code)
	}
	if code, _, _ := runSpec(t, src, "-instances", "IBM=notanumber"); code != 2 {
		t.Fatalf("non-numeric OID accepted: exit=%d", code)
	}
}

func TestUnknownOperatorRejected(t *testing.T) {
	for _, src := range []string{
		"event e = a xor b;",
		"event e = nand(a, b);",
	} {
		code, _, stderr := runSpec(t, "class C reactive { event end(a) m(); event end(b) n(); }\n"+src)
		if code != 1 {
			t.Errorf("%q: exit=%d stderr=%q", src, code, stderr)
		}
	}
}

func TestConflictingDuplicateEventDeclaration(t *testing.T) {
	src := `
class C reactive { event end(e1) pay(amount); }
class D reactive { event end(e1) refund(amount); }
`
	code, _, stderr := runSpec(t, src)
	if code != 1 || !strings.Contains(stderr, "e1") {
		t.Errorf("exit=%d stderr=%q", code, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no args: exit=%d", code)
	}
	if code := run([]string{"does-not-exist.snp"}, &out, &errb); code != 1 {
		t.Fatalf("missing file: exit=%d", code)
	}
}
