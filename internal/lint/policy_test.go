package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDefaultPolicyEntriesExist keeps the repository policy in step with
// the tree: every audited package must resolve and every exempt file must
// exist, so deleting a package or file without its policy entry fails
// here instead of leaving a stale exemption behind.
func TestDefaultPolicyEntriesExist(t *testing.T) {
	pol := Default()
	root := filepath.Join("..", "..")

	pkgs := []string{pol.RegistryPkg}
	for p := range pol.Deterministic {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	cmd := exec.Command("go", append([]string{"list", "-e", "-f", "{{.ImportPath}}\t{{with .Error}}{{.Err}}{{end}}"}, pkgs...)...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, errText, _ := strings.Cut(line, "\t"); errText != "" {
			t.Errorf("policy names package %s, which does not resolve: %s", path, errText)
		}
	}

	for name, files := range map[string]map[string]bool{
		"WallclockExemptFiles": pol.WallclockExemptFiles,
		"GoroutineExemptFiles": pol.GoroutineExemptFiles,
	} {
		for f := range files {
			if _, err := os.Stat(filepath.Join(root, f)); err != nil {
				t.Errorf("%s names %s: %v", name, f, err)
			}
		}
	}
}
