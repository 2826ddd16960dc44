package lint

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// README's lint section is checked against the code it describes: its
// table of checks lists exactly All, in order, and its sentence naming
// the deterministic packages lists exactly deterministicPkgs.
func TestReadmeMatchesLint(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	backticked := regexp.MustCompile("`([^`]+)`")

	table := regexp.MustCompile("(?m)^\\| check +\\| enforces +\\|\\n\\|[-|]+\\|\\n((?:\\|.*\\n)+)").FindStringSubmatch(readme)
	if table == nil {
		t.Fatal("README has no table of checks")
	}
	var listed []string
	for _, row := range strings.Split(strings.TrimSpace(table[1]), "\n") {
		cells := strings.Split(row, "|")
		m := backticked.FindStringSubmatch(cells[1])
		if m == nil {
			t.Fatalf("table row %q does not name a check", row)
		}
		listed = append(listed, m[1])
	}
	var shipped []string
	for _, a := range All {
		shipped = append(shipped, a.Name)
	}
	if !slices.Equal(listed, shipped) {
		t.Errorf("README's table of checks lists %q, lint.All is %q", listed, shipped)
	}

	const intro = "The *deterministic packages* are "
	start := strings.Index(readme, intro)
	if start < 0 {
		t.Fatal("README does not name the deterministic packages")
	}
	sentence := readme[start+len(intro):]
	sentence = sentence[:strings.Index(sentence, ".")]
	var named []string
	for _, m := range backticked.FindAllStringSubmatch(sentence, -1) {
		named = append(named, "internal/"+m[1])
	}
	want := slices.Clone(deterministicPkgs)
	slices.Sort(named)
	slices.Sort(want)
	if !slices.Equal(named, want) {
		t.Errorf("README's deterministic packages are %q, deterministicPkgs is %q", named, want)
	}
}
