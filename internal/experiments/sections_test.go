package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sectionNames(secs []Section) []string {
	names := make([]string, len(secs))
	for i, s := range secs {
		names[i] = s.Name
	}
	return names
}

// TestSectionsOrder: the list holds every table and figure of the paper
// once, in the paper's order, and the report prints tables, then
// figures, then extensions.
func TestSectionsOrder(t *testing.T) {
	secs := Sections()
	seen := map[string]bool{}
	for i, s := range secs {
		if seen[s.Name] {
			t.Fatalf("section %q listed twice", s.Name)
		}
		seen[s.Name] = true
		if i > 0 && s.Kind < secs[i-1].Kind {
			t.Fatalf("%s (%s) follows %s (%s): want tables, then figures, then extensions", s.Name, s.Kind, secs[i-1].Name, secs[i-1].Kind)
		}
	}

	tables, err := Select(TableKind, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII"}
	for i := range want {
		want[i] = "Table " + want[i]
	}
	if got := sectionNames(tables); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("tables = %v, want %v", got, want)
	}

	figures, err := Select(FigureKind, "")
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	for _, tc := range TotalCases() {
		want = append(want, tc.Fig)
	}
	if got := sectionNames(figures); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("figures = %v, want %v", got, want)
	}

	ext, err := Select(ExtensionKind, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables)+len(figures)+len(ext) != len(secs) {
		t.Fatalf("%d tables + %d figures + %d extensions != %d sections", len(tables), len(figures), len(ext), len(secs))
	}
}

func TestSelectOnly(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		only string
		want string
	}{
		{TableKind, "IX", "Table IX"}, // not Table XII
		{TableKind, "Table IX", "Table IX"},
		{TableKind, " table ix ", "Table IX"},
		{TableKind, "i", "Table I"},
		{FigureKind, "5", "Figure 5"},
		{FigureKind, "figure 5", "Figure 5"},
	} {
		secs, err := Select(c.kind, c.only)
		if err != nil {
			t.Fatalf("Select(%s, %q): %v", c.kind, c.only, err)
		}
		if got := sectionNames(secs); len(got) != 1 || got[0] != c.want {
			t.Fatalf("Select(%s, %q) = %v, want [%s]", c.kind, c.only, got, c.want)
		}
	}
	for _, c := range []struct {
		kind Kind
		only string
	}{
		{TableKind, "XIII"},
		{TableKind, "5"}, // a figure numeral is not a table
		{FigureKind, "IX"},
		{FigureKind, "Table 5"},
	} {
		if secs, err := Select(c.kind, c.only); err == nil || !strings.Contains(err.Error(), c.kind.String()) {
			t.Fatalf("Select(%s, %q) = %v, %v; want a no-match error", c.kind, c.only, sectionNames(secs), err)
		}
	}
}

// TestFigureSectionCSV: with a CSV directory the figure section writes
// its data there and says so after the histogram.
func TestFigureSectionCSV(t *testing.T) {
	secs, err := Select(FigureKind, "3")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "csv")
	var buf bytes.Buffer
	if err := secs[0].Run(testScale(), &buf, dir); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "figure_3.csv")
	if !strings.HasSuffix(buf.String(), "(wrote "+name+")\n") {
		t.Fatalf("figure output does not end with the CSV note:\n%s", buf.String())
	}
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# Figure 3, ") {
		t.Fatalf("CSV starts %.40q", data)
	}
}
