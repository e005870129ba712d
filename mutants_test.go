//go:build mutants

package bounded

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMutants runs the mutation catalog (mutations_test.go), one entry
// after another. An entry fails when no test catches its mutant, when
// its named killer passes, or when the mutant does not build or vet — a
// catalog error, never a kill. Each entry logs every top-level test
// that failed on its mutant, so -v prints the killers.
func TestMutants(t *testing.T) {
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			killers, err := runMutant(t, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(killers) == 0 {
				t.Fatal("survives: no test fails on the mutant")
			}
			t.Logf("killed by %s", strings.Join(killers, ", "))
			if !slices.Contains(killers, m.killer) {
				t.Errorf("not killed by %s", m.killer)
			}
		})
	}
}

// runMutant writes m's mutant to a temporary directory and runs go test
// over the mutated file's package, the killer's and the root package
// with the mutant overlaid on the file, so the tree is never written.
// It returns the top-level tests that failed, as "import/path TestName",
// sorted: the packages run in parallel.
func runMutant(t *testing.T, m mutation) ([]string, error) {
	src, err := os.ReadFile(m.file)
	if err != nil {
		return nil, err
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		return nil, fmt.Errorf("old snippet occurs %d times in %s, want once", n, m.file)
	}
	abs, err := filepath.Abs(m.file)
	if err != nil {
		return nil, err
	}
	dir := t.TempDir()
	mutant, overlay := filepath.Join(dir, path.Base(m.file)), filepath.Join(dir, "overlay.json")
	replace, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: mutant}}) // strings always marshal
	if err := errors.Join(os.WriteFile(mutant, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644),
		os.WriteFile(overlay, replace, 0o644)); err != nil {
		return nil, err
	}
	killerPkg, _, _ := strings.Cut(m.killer, " ")
	pkgs := []string{"repro", path.Join("repro", path.Dir(m.file)), killerPkg}
	slices.Sort(pkgs)
	cmd := exec.Command("go", append([]string{"test", "-count=1", "-json", "-timeout=5m", "-overlay=" + overlay},
		slices.Compact(pkgs)...)...)
	// GOFLAGS may carry the mutants tag, which would rerun this runner
	// inside every mutant.
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()
	if runErr != nil && !errors.As(runErr, new(*exec.ExitError)) {
		return nil, runErr
	}
	var killers, build []string
	failed := map[string]bool{} // packages with a failed top-level test
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var ev struct{ Action, Package, Test, Output, FailedBuild string }
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("reading go test -json: %v", err)
		}
		switch {
		case ev.Action == "build-output":
			build = append(build, ev.Output)
		case ev.Action == "build-fail" || ev.FailedBuild != "":
			return nil, fmt.Errorf("the mutant does not build or vet:\n%s", strings.Join(build, ""))
		case ev.Action != "fail" || strings.Contains(ev.Test, "/"):
		case ev.Test != "":
			failed[ev.Package] = true
			killers = append(killers, ev.Package+" "+ev.Test)
		case !failed[ev.Package]: // a panic in init, or a timeout between tests
			killers = append(killers, ev.Package+" (no test named)")
		}
	}
	if runErr != nil && len(killers) == 0 {
		return nil, fmt.Errorf("go test failed outside any test: %v\n%s", runErr, stderr.String())
	}
	slices.Sort(killers)
	return killers, nil
}
