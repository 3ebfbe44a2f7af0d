package gen

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSecondShapeMatchesBaseline builds a second configuration (4
// registers, overflow followup 3) that is not checked in: the
// generated source and internal/gendyn's shape-agnostic tests are laid
// over a package directory that exists only in a go build overlay. The
// test binary is built with -c (and without vet, which would chdir
// into the package directory) and run from a temp dir, since that
// directory is not on disk. Its tests compare every workload
// and every (cache state, opcode) case with the switch baseline, so a
// wrong case the generator emits only for this shape fails here.
func TestSecondShapeMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a test binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not found: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	src, err := DynamicInterp("gendyn", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	genFile := filepath.Join(tmp, "gendyn.go")
	if err := os.WriteFile(genFile, src, 0o644); err != nil {
		t.Fatal(err)
	}
	virtual := filepath.Join(root, "internal", "gen", "gendyn43")
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {
		filepath.Join(virtual, "gendyn.go"):     genFile,
		filepath.Join(virtual, "shape_test.go"): filepath.Join(root, "internal", "gendyn", "shape_test.go"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	overlayFile := filepath.Join(tmp, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(tmp, "gendyn43.test")
	build := exec.Command(goTool, "test", "-c", "-vet=off", "-overlay", overlayFile, "-o", bin, "./internal/gen/gendyn43")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the (4,3) configuration: %v\n%s", err, out)
	}
	run := exec.Command(bin, "-test.v")
	run.Dir = tmp
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("the (4,3) configuration disagrees with the baseline: %v\n%s", err, out)
	}
	for _, name := range []string{"TestMatchesBaselineOnAllWorkloads", "TestExhaustiveStateOpcode"} {
		if !strings.Contains(string(out), "--- PASS: "+name) {
			t.Errorf("the (4,3) configuration did not run %s:\n%s", name, out)
		}
	}
}
